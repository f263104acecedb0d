// Train SAPS-PSGD on the REAL MNIST dataset when the IDX files are present
// (pass --mnist-dir=/path/to/mnist), falling back to the synthetic stand-in
// otherwise — the exact substitution documented in docs/ARCHITECTURE.md
// ("Synthetic stand-ins") and encoded in the registry's "real-mnist"
// workload.  Saves the final collected model as a checkpoint, mirroring
// Algorithm 1 line 8.
//
// Run:  ./build/examples/train_real_mnist [--mnist-dir=data/mnist]
//                                         [--workers=8 --epochs=4]
#include <iostream>

#include "nn/checkpoint.hpp"
#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  // describe_scenario_flags covers every registered workload's parameters,
  // including real-mnist's --mnist-dir.
  saps::scenario::describe_scenario_flags(flags);
  flags.describe("checkpoint", "output checkpoint path");
  saps::exit_on_help_or_unknown(flags, argv[0]);

  const auto spec = saps::scenario::scenario_from_flags_or_exit(
      flags, "workload=real-mnist\nalgorithm=saps\nepochs=4\nsamples=200");
  saps::scenario::require_algorithm_or_exit(spec, "saps");
  const auto out = flags.get_string("checkpoint", "saps_mnist.ckpt");

  saps::scenario::Runner runner(spec);
  const auto& workload = runner.workload();
  if (!workload.note.empty()) std::cout << workload.note << "\n";
  std::cout << "training SAPS-PSGD (c=" << runner.spec().params.raw("saps-c")
            << ") on " << spec.workers << " workers, "
            << workload.display_name << " (" << workload.train.size()
            << " train / " << workload.test.size() << " test samples)\n";

  const auto record = runner.run("saps");
  std::cout << "final accuracy " << record.result.final().accuracy * 100.0
            << "% after " << record.result.final().round << " rounds, "
            << record.result.final().worker_mb << " MB per worker\n";

  // Coordinator collects the final model from one worker; persist it.
  saps::nn::save_checkpoint(out, record.final_params);
  std::cout << "saved final model to " << out << " ("
            << saps::nn::load_checkpoint(out).size() << " params verified)\n";
  return 0;
}
