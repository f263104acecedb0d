// Compression-ratio ablation — backs the paper's Section IV-A remark:
// SAPS-PSGD tolerates aggressive random-mask sparsification (c = 100), while
// DCD-PSGD degrades beyond c = 4 and fails to converge at c ≈ 100+ because
// its compression error feeds back into the public-copy dynamics.
//
// Each figure family is one sweep suite (scenario/sweep.hpp): the built-in
// grids below reproduce the classic three tables, and `--spec` with
// `sweep.` lines (e.g. bench/specs/ablation_sweep.spec) runs ANY grid
// through the same path.  `--suite-threads=N` runs points in parallel with
// bit-identical output.
#include <iostream>
#include <vector>

#include "scenario/cli.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kSapsSweep =
    "algorithm=saps\n"
    "sweep.saps-c=4,10,100,1000\n";
constexpr const char* kDcdSweep =
    "algorithm=dcd\n"
    "sweep.dcd-c=4,20,100\n";
constexpr const char* kQsgdSweep =
    "algorithm=qsgd\n"
    "sweep.qsgd-levels=1,4,16\n";

void print_points(const std::vector<saps::scenario::SuitePointResult>& points) {
  saps::Table table({"point", "algorithm", "final_accuracy_pct", "traffic_mb"});
  for (const auto& pt : points) {
    for (const auto& run : pt.runs) {
      table.add_row({pt.label, run.name,
                     saps::Table::num(run.result.final().accuracy * 100, 2),
                     saps::Table::num(run.traffic_mb, 4)});
    }
  }
  std::cout << table.to_aligned();
}

}  // namespace

int main(int argc, char** argv) {
  using saps::scenario::SuiteRunner;
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  saps::scenario::describe_suite_flags(flags);
  saps::exit_on_help_or_unknown(flags, argv[0]);
  auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);
  auto options = saps::scenario::suite_options_from_flags(flags);
  options.sinks = &sinks;

  if (flags.has("spec")) {
    // A user grid: run it as-is, one table.
    auto sweep = saps::scenario::sweep_from_flags_or_exit(flags, "");
    const auto points = SuiteRunner(std::move(sweep), options).run();
    std::cout << "=== Sweep suite (" << points.size() << " points) ===\n";
    print_points(points);
    return 0;
  }
  // All three grids are read before the first one trains.
  auto saps_sweep = saps::scenario::sweep_from_flags_or_exit(flags, kSapsSweep);
  auto dcd_sweep = saps::scenario::sweep_from_flags_or_exit(flags, kDcdSweep);
  auto qsgd_sweep = saps::scenario::sweep_from_flags_or_exit(flags, kQsgdSweep);

  std::cout << "=== Ablation: compression ratio c vs final accuracy and "
               "traffic ===\n\n";

  std::cout << "SAPS-PSGD (seeded random mask, values-only wire format):\n";
  print_points(SuiteRunner(std::move(saps_sweep), options).run());

  std::cout << "\nDCD-PSGD (top-k difference compression on the ring):\n";
  print_points(SuiteRunner(std::move(dcd_sweep), options).run());
  std::cout << "(paper: DCD loses accuracy for c > 4 and does not converge "
               "at c = 100/1000, while SAPS holds at c = 100)\n\n";

  // Quantization family (related work): compression is capped near 32x
  // (1-bit), versus the 100-1000x sparsification reaches above.
  std::cout << "QSGD-PSGD (stochastic quantization, all-gather):\n";
  print_points(SuiteRunner(std::move(qsgd_sweep), options).run());
  std::cout << "(even 1-level QSGD moves more bytes than SAPS at c = 100 — "
               "the paper's case for sparsification over quantization)\n";
  return 0;
}
