// Side-by-side run of all seven algorithms on one workload — a miniature of
// the paper's whole evaluation in one command.
//
// Run:  ./build/examples/compare_algorithms [--workload=mnist --epochs=10]
#include <iostream>

#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  saps::exit_on_help_or_unknown(flags, argv[0]);
  const auto spec = saps::scenario::scenario_from_flags_or_exit(
      flags, "bandwidth=uniform");
  auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);

  saps::scenario::Runner runner(spec);
  std::cout << "Comparing 7 algorithms on " << runner.workload().display_name
            << " (" << spec.workers << " workers, " << spec.epochs
            << " epochs, random (0,5] MB/s bandwidths)\n\n";

  const auto runs = runner.run_all(&sinks);
  saps::Table table({"Algorithm", "Accuracy %", "Traffic MB/worker",
                     "Comm time s", "Rounds"});
  for (const auto& r : runs) {
    table.add_row({r.name,
                   saps::Table::num(r.result.final().accuracy * 100.0, 2),
                   saps::Table::num(r.traffic_mb, 4),
                   saps::Table::num(r.comm_seconds, 3),
                   saps::Table::num(static_cast<long long>(
                       r.result.final().round))});
  }
  std::cout << table.to_aligned()
            << "\nPaper shape to look for: SAPS-PSGD matches D-PSGD accuracy "
               "at a fraction of the traffic and time.\n";
  return 0;
}
