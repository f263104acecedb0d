// Geo-distributed federated scenario — the setting the paper's introduction
// motivates: 14 workers in 14 cities (the measured Fig. 1 bandwidths),
// non-IID data (label shards), and workers that drop out and rejoin
// mid-training.  SAPS-PSGD's adaptive peer selection keeps communication on
// fast links and the coordinator re-matches around the missing workers.
//
// Everything — the city bandwidths, the shard partition, the dropout/rejoin
// windows — is ONE declarative ScenarioSpec; the failure schedule rides the
// spec ("failures=9@R-R2,...") instead of hand-wired set_active calls.
//
// Run:  ./build/examples/geo_federated [--epochs=8]
#include <algorithm>
#include <iostream>

#include "net/bandwidth.hpp"
#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  saps::exit_on_help_or_unknown(flags, argv[0]);

  // 14 cities on the Fig. 1 matrix, label shards.
  std::string defaults =
      "workers=14\nbandwidth=cities\npartition=shard\nepochs=8\nseed=7\n"
      "algorithm=saps\n";
  auto spec = saps::scenario::scenario_from_flags_or_exit(flags, defaults);
  saps::scenario::require_algorithm_or_exit(spec, "saps");

  const auto& cities = saps::net::fig1_city_names();
  // Rounds per epoch, clamped so the dropout window stays valid (rejoin
  // strictly after drop) for any --samples/--batch/--epochs combination.
  const std::size_t steps = std::max<std::size_t>(1, spec.samples /
                                                         spec.batch);
  const std::size_t drop_at =
      std::max<std::size_t>(1, spec.epochs * steps / 3);
  const std::size_t rejoin_at = 2 * drop_at;
  if (!spec.provided("failures")) {
    // Mumbai (9) and SaoPaulo (13) leave for a third of the run, rejoin.
    // The window depends on the resolved epochs, samples and batch, so the
    // spec resolves once more with it.
    const auto window =
        std::to_string(drop_at) + "-" + std::to_string(rejoin_at);
    defaults += "failures=9@" + window + ",13@" + window + "\n";
    spec = saps::scenario::scenario_from_flags_or_exit(flags, defaults);
  }

  std::cout << "Geo-federated run: " << spec.workers
            << " city workers, non-IID shards, Fig. 1 bandwidths\n\n";

  // Adaptive selection with mid-training churn.
  saps::scenario::Runner adaptive_runner(spec);
  const auto result_a = adaptive_runner.run("saps");

  // Random peer selection, same budget, no dropout.
  auto random_spec = spec;
  random_spec.failures.clear();
  random_spec.set("saps-strategy", "random");
  saps::scenario::Runner random_runner(random_spec,
                                       adaptive_runner.workload());
  const auto result_r = random_runner.run("saps");

  saps::RunningStat bw_a;
  for (const auto v : result_a.result.selected_bandwidth) bw_a.add(v);

  const auto& fa = result_a.result.final();
  std::cout << "adaptive peer selection (with dropout of " << cities[9]
            << " and " << cities[13] << " during rounds [" << drop_at << ", "
            << rejoin_at << ")):\n"
            << "  final accuracy:          " << fa.accuracy * 100 << "%\n"
            << "  per-worker traffic:      " << fa.worker_mb << " MB\n"
            << "  communication time:      " << fa.comm_seconds << " s\n"
            << "  mean bottleneck link:    " << bw_a.mean() << " MB/s\n"
            << "  coordinator control:     " << result_a.control_bytes / 1e3
            << " KB (vs " << fa.worker_mb * 1e3
            << " KB of model traffic per worker)\n\n";

  const auto& fr = result_r.result.final();
  std::cout << "random peer selection (no dropout, same budget):\n"
            << "  final accuracy:          " << fr.accuracy * 100 << "%\n"
            << "  communication time:      " << fr.comm_seconds << " s\n\n";

  // The saving means little unless both runs learned: say how far each got.
  std::cout << "adaptive selection spends "
            << fr.comm_seconds / std::max(1e-9, fa.comm_seconds)
            << "x less time communicating than random selection on these "
               "links, ending at "
            << fa.accuracy * 100 << "% accuracy against random's "
            << fr.accuracy * 100 << "%.\n";
  return 0;
}
