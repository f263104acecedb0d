// Quickstart: train a small model with SAPS-PSGD on 8 simulated workers.
//
// Shows the minimal Scenario API path:
//   ScenarioSpec → Runner → metric history (+ a stdout table sink).
// The spec prints back losslessly (to_spec_text), so every run carries its
// own reproduction recipe.
//
// Build & run:  ./build/examples/quickstart [--workers=8 --epochs=6]
#include <iostream>

#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  // 1. Flags (and --help) are generated from the registry's parameter
  //    descriptors — the same surface every bench shares.
  saps::scenario::describe_scenario_flags(flags);
  saps::exit_on_help_or_unknown(flags, argv[0]);

  // 2. A declarative scenario: the MNIST stand-in workload, SAPS-PSGD with
  //    the paper's c=100 sparsification (its default), 8 workers.  --spec
  //    files and CLI flags override this binary's defaults text.
  const auto spec = saps::scenario::scenario_from_flags_or_exit(
      flags, "algorithm=saps");
  saps::scenario::require_algorithm_or_exit(spec, "saps");

  // 3. The Runner builds the workload + a fresh engine and streams every
  //    evaluation point to the attached sinks.
  saps::scenario::Runner runner(spec);
  std::cout << "SAPS-PSGD quickstart: " << runner.spec().workers
            << " workers, c=" << runner.spec().params.raw("saps-c")
            << " sparsification\n\n# reproduction spec:\n"
            << saps::scenario::to_spec_text(runner.spec()) << "\n";

  saps::scenario::SinkList sinks = saps::scenario::sinks_from_flags_or_exit(
      flags);
  if (sinks.empty()) {
    sinks = saps::scenario::make_sinks("table");  // default: stdout table
  }
  const auto record = runner.run("saps", &sinks);

  // 4. The metric history is the training curve.
  std::cout << "final accuracy: " << record.result.final().accuracy * 100.0
            << "%  after " << record.result.final().round << " rounds and "
            << record.result.final().worker_mb << " MB per worker\n";
  return 0;
}
