// End-to-end comparison of all seven algorithms on one shared task — the
// miniature version of the paper's Section IV claims, now driven through the
// Scenario API (registry + ScenarioSpec + Runner) end to end:
//   (1) SAPS-PSGD converges comparably to D-PSGD;
//   (2) SAPS-PSGD uses the least per-worker traffic of all algorithms;
//   (3) with bandwidth, SAPS-PSGD's communication time beats the
//       decentralized full-model baselines;
//   (4) a failure-dynamics scenario (dropout at round R, rejoin at R')
//       expressed in a spec FILE matches the hand-wired on_round equivalent
//       bit for bit.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/saps.hpp"
#include "scenario/runner.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

// Historical integration workload: 5 classes in 10-d, hidden width 24
// (test_util::BlobSpec{960, 240, 10, 5, 0.35, 808, 24}), 8 workers, 12
// epochs — the FedAvg-family algorithms advance one communication round per
// epoch, so the epoch budget must give S-FedAvg enough rounds to cover
// coordinates (coverage = 1-(1-1/c)^rounds).
scenario::ScenarioSpec base_spec() {
  scenario::ScenarioSpec spec;
  spec.set("workload", "blob");
  spec.set("blob-train", "960");
  spec.set("blob-test", "240");
  spec.set("blob-features", "10");
  spec.set("blob-classes", "5");
  spec.set("blob-noise", "0.35");
  spec.set("blob-data-seed", "808");
  spec.set("blob-hidden", "24");
  spec.set("workers", "8");
  spec.set("epochs", "12");
  spec.set("batch", "16");
  spec.set("lr", "0.08");
  spec.set("seed", "21");
  spec.set("bandwidth", "uniform");
  spec.set("bandwidth-seed", "13");
  // Compression ratios scaled down from the paper's (c=1000/100/4) to match
  // the miniature round budget; the ORDERING claims are scale-free.
  spec.set("topk-c", "20");
  spec.set("sfedavg-c", "5");
  spec.set("dcd-c", "4");
  spec.set("saps-c", "50");
  spec.set("fedavg-steps", "0");  // one local epoch per round
  spec.threads = test_util::env_threads();
  return spec;
}

class AllAlgorithms : public ::testing::Test {
 protected:
  static scenario::Runner& runner() {
    static scenario::Runner shared(base_spec());
    return shared;
  }
};

TEST_F(AllAlgorithms, SevenWayComparisonReproducesPaperOrdering) {
  const auto runs = runner().run_all();
  ASSERT_EQ(runs.size(), 7u);

  auto by_name = [&](const std::string& name) -> const scenario::RunRecord& {
    for (const auto& r : runs) {
      if (r.name == name) return r;
    }
    throw std::runtime_error("missing " + name);
  };

  // Every algorithm learns the blob task.
  for (const auto& r : runs) {
    EXPECT_GT(r.result.final().accuracy, 0.75) << r.name;
  }

  // Claim (1): SAPS ≈ D-PSGD accuracy (within a few points).
  EXPECT_NEAR(by_name("SAPS-PSGD").result.final().accuracy,
              by_name("D-PSGD").result.final().accuracy, 0.1);

  // Claim (2): lowest traffic of all seven.
  const double saps_mb = by_name("SAPS-PSGD").traffic_mb;
  for (const auto& r : runs) {
    if (r.name != "SAPS-PSGD") {
      EXPECT_LT(saps_mb, r.traffic_mb) << "vs " << r.name;
    }
  }
  // And by a large factor against the dense decentralized baselines.
  EXPECT_LT(saps_mb * 10.0, by_name("D-PSGD").traffic_mb);

  // Claim (3): communication time beats dense decentralized baselines.
  EXPECT_LT(by_name("SAPS-PSGD").comm_seconds,
            by_name("D-PSGD").comm_seconds);
  EXPECT_LT(by_name("SAPS-PSGD").comm_seconds,
            by_name("DCD-PSGD").comm_seconds);
}

TEST_F(AllAlgorithms, MetricHistoriesAreMonotoneInRoundsAndTraffic) {
  auto spec = base_spec();
  spec.set("saps-c", "20");
  scenario::Runner saps_runner(spec, runner().workload());
  const auto r = saps_runner.run("saps");
  for (std::size_t i = 1; i < r.result.history.size(); ++i) {
    EXPECT_GE(r.result.history[i].round, r.result.history[i - 1].round);
    EXPECT_GE(r.result.history[i].worker_mb,
              r.result.history[i - 1].worker_mb);
    EXPECT_GE(r.result.history[i].comm_seconds,
              r.result.history[i - 1].comm_seconds);
  }
}

TEST(NonIid, SapsStillLearnsUnderShardPartition) {
  scenario::ScenarioSpec spec;
  spec.set("workload", "blob");
  spec.set("blob-train", "960");
  spec.set("blob-test", "240");
  spec.set("blob-features", "10");
  spec.set("blob-classes", "5");
  spec.set("blob-noise", "0.35");
  spec.set("blob-data-seed", "909");
  spec.set("blob-hidden", "24");
  spec.set("workers", "8");
  spec.set("epochs", "6");
  spec.set("batch", "16");
  spec.set("lr", "0.05");
  spec.set("seed", "33");
  spec.set("partition", "shard");
  spec.set("shards-per-worker", "2");
  spec.set("saps-c", "10");
  spec.threads = test_util::env_threads();
  scenario::Runner runner(spec);
  const auto record = runner.run("saps");
  EXPECT_GT(record.result.final().accuracy, 0.6);
}

// The failure-dynamics scenario — dropout at round R, rejoin at round R' —
// expressed declaratively in a spec FILE and executed by the Runner must be
// bit-identical to the ad-hoc coordinator/engine set_active wiring it
// replaces (the geo_federated pattern).
TEST(FailureDynamics, SpecFileDropoutRejoinMatchesManualWiringBitForBit) {
  constexpr std::size_t kDrop = 5, kRejoin = 25;
  const std::string spec_path =
      ::testing::TempDir() + "/failure_dynamics.spec";
  {
    std::ofstream out(spec_path);
    out << "# dropout/rejoin scenario: workers 2 and 5 away for rounds ["
        << kDrop << ", " << kRejoin << ")\n"
        << "workload=blob\n"
        << "algorithm=saps\n"
        << "blob-train=960\nblob-test=240\nblob-features=10\n"
        << "blob-classes=5\nblob-noise=0.35\nblob-data-seed=808\n"
        << "blob-hidden=24\n"
        << "workers=8\nepochs=6\nbatch=16\nlr=0.08\nseed=21\n"
        << "bandwidth=uniform\nbandwidth-seed=13\n"
        << "saps-c=20\n"
        << "failures=2@" << kDrop << "-" << kRejoin << ",5@" << kDrop << "-"
        << kRejoin << "\n";
  }
  std::ifstream in(spec_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto spec = scenario::parse_spec_text(buffer.str());
  spec.threads = test_util::env_threads();
  scenario::Runner runner(spec);
  const auto from_spec = runner.run("saps");
  EXPECT_GT(from_spec.result.final().accuracy, 0.6);

  // Manual twin: same engine workload, hand-wired on_round set_active.
  const test_util::BlobSpec blob{960, 240, 10, 5, 0.35, 808, 24};
  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 6;
  cfg.batch_size = 16;
  cfg.lr = 0.08;
  cfg.seed = 21;
  auto engine = test_util::blob_engine(
      cfg, blob, net::random_uniform_bandwidth(8, 13));
  algos::Dynamics manual_dyn;
  manual_dyn.on_round = [&](std::size_t round, sim::Engine& eng) {
    const bool away = round >= kDrop && round < kRejoin;
    for (const std::size_t w : {2u, 5u}) eng.set_active(w, !away);
  };
  core::SapsPsgd manual({.compression = 20.0}, std::move(manual_dyn));
  const auto manual_result = manual.run(engine);

  ASSERT_EQ(from_spec.result.history.size(), manual_result.history.size());
  for (std::size_t i = 0; i < manual_result.history.size(); ++i) {
    EXPECT_EQ(from_spec.result.history[i].loss,
              manual_result.history[i].loss);
    EXPECT_EQ(from_spec.result.history[i].accuracy,
              manual_result.history[i].accuracy);
    EXPECT_EQ(from_spec.result.history[i].worker_mb,
              manual_result.history[i].worker_mb);
    EXPECT_EQ(from_spec.result.history[i].comm_seconds,
              manual_result.history[i].comm_seconds);
  }
}

}  // namespace
}  // namespace saps
