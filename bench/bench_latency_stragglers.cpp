// Latency / straggler scenario family — the workload the old synchronous
// NetworkSim could not express.  Runs the algorithm comparison on one
// workload under a sweep of per-link latency and per-worker compute-jitter
// settings (event-driven link model, see docs/ARCHITECTURE.md "Message
// plane") and reports how each algorithm's communication time inflates
// relative to the instantaneous-link, uniform-compute baseline.
//
// The grid is a sweep suite (scenario/sweep): the built-in fallback is
// {0, 1ms, 10ms} latency x {0, 50ms} jitter; any other grid is one --spec
// file away, and --suite-threads=N runs the points in parallel with
// bit-identical output.
//
// Shape to observe: chatty multi-hop protocols (TopK/QSGD ring all-gathers
// run n-1 latency-bound rounds per step) degrade fastest as latency grows,
// while SAPS-PSGD's single pairwise exchange per round stays close to its
// baseline; compute jitter hits every synchronous algorithm about equally
// because the slowest worker holds the round open.  Related scenarios:
// time-varying / high-latency links in Sparse-Push (Aketi et al. 2021) and
// device heterogeneity in "Get More for Less" (Dhasade et al. 2023).
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kFallbackSweep =
    "bandwidth=uniform\n"
    "sweep.latency=0,0.001,0.01\n"
    "sweep.compute-jitter=0,0.05\n";

}  // namespace

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  saps::scenario::describe_suite_flags(flags);
  saps::exit_on_help_or_unknown(flags, argv[0]);
  auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);
  auto sweep = saps::scenario::sweep_from_flags_or_exit(flags, kFallbackSweep);
  auto options = saps::scenario::suite_options_from_flags(flags);
  options.sinks = &sinks;

  // Baseline (instantaneous links, uniform compute) for the inflation
  // column: the first grid point's spec with every timing knob zeroed.
  auto base_spec = sweep.point(0);
  base_spec.latency = 0.0;
  base_spec.compute_base = 0.0;
  base_spec.compute_jitter = 0.0;
  std::map<std::string, double> ideal;
  saps::scenario::Runner base(base_spec);
  std::cout << "=== Latency / straggler sweep ("
            << base.workload().display_name
            << "): communication time [s] by scenario ===\n";
  for (const auto& r : base.run_all(&sinks)) {
    ideal[r.name] = r.comm_seconds;
  }

  saps::scenario::SuiteRunner runner(std::move(sweep), options);
  const auto points = runner.run();

  saps::Table table({"latency_s", "jitter_s", "algorithm", "comm_seconds",
                     "vs_ideal", "final_accuracy_pct"});
  for (const auto& pt : points) {
    for (const auto& r : pt.runs) {
      const auto it = ideal.find(r.name);
      const double base_s = it == ideal.end() ? 0.0 : it->second;
      table.add_row({saps::Table::num(pt.spec.latency, 4),
                     saps::Table::num(pt.spec.compute_jitter, 4), r.name,
                     saps::Table::num(r.comm_seconds, 4),
                     saps::Table::num(
                         base_s > 0.0 ? r.comm_seconds / base_s : 1.0, 2),
                     saps::Table::num(r.result.final().accuracy * 100.0, 2)});
    }
  }
  std::cout << table.to_aligned() << "\n";
  std::cout << "vs_ideal = comm_seconds / zero-latency uniform-compute "
               "comm_seconds of the same algorithm.\n";
  return 0;
}
