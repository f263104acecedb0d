// Tests for the paper's algorithm: coordinator, worker, and end-to-end
// SAPS-PSGD behaviour including federated dynamics (dropout/rejoin).
#include <gtest/gtest.h>

#include "compress/mask.hpp"
#include "core/coordinator.hpp"
#include "core/saps.hpp"
#include "core/worker.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "test_util.hpp"

namespace saps::core {
namespace {

using test_util::blob_engine;

TEST(Coordinator, RandomFallbackWithoutBandwidth) {
  Coordinator coord(8, std::nullopt, {});
  const auto plan = coord.begin_round();
  EXPECT_EQ(plan.round, 0u);
  EXPECT_EQ(plan.gossip.pairs().size(), 4u);
}

TEST(Coordinator, AdaptiveWithBandwidth) {
  const auto bw = net::random_uniform_bandwidth(8, 5);
  Coordinator coord(8, bw, {});
  const auto plan = coord.begin_round();
  EXPECT_EQ(plan.gossip.pairs().size(), 4u);
  EXPECT_GT(coord.bottleneck_bandwidth(plan.gossip), 0.0);
}

TEST(Coordinator, SeedsDifferAcrossRounds) {
  Coordinator coord(4, std::nullopt, {});
  const auto a = coord.begin_round();
  const auto b = coord.begin_round();
  EXPECT_NE(a.mask_seed, b.mask_seed);
  EXPECT_EQ(b.round, 1u);
}

TEST(Coordinator, ControlBytesAreTiny) {
  // A 32-worker SAPS run's status traffic stays under ~1 MB of control
  // data — the "lightweight coordinator" claim.
  auto engine = blob_engine(32, 3);
  SapsPsgd algo({.compression = 10.0});
  (void)algo.run(engine);
  EXPECT_LT(engine.fabric().control_bytes(), 1e6);
  EXPECT_GT(engine.fabric().control_bytes(), 0.0);
}

TEST(Coordinator, DropoutExcludesWorkerFromPlans) {
  Coordinator coord(6, std::nullopt, {});
  EXPECT_EQ(coord.active_count(), 6u);
  const std::vector<std::size_t> live = {0, 1, 3, 4, 5};
  coord.set_active(live);
  EXPECT_FALSE(coord.active(2));
  EXPECT_TRUE(coord.active(3));
  EXPECT_EQ(coord.active_count(), 5u);
  for (int t = 0; t < 20; ++t) {
    const auto plan = coord.begin_round();
    EXPECT_EQ(plan.gossip.peer(2), 2u);
  }
}

TEST(Coordinator, RejectsAnActiveListThatIsUnsortedOrOutOfRange) {
  Coordinator coord(6, std::nullopt, {});
  const std::vector<std::size_t> unsorted = {0, 3, 1};
  const std::vector<std::size_t> repeated = {1, 1, 4};
  const std::vector<std::size_t> out_of_range = {0, 2, 6};
  EXPECT_THROW(coord.set_active(unsorted), std::invalid_argument);
  EXPECT_THROW(coord.set_active(repeated), std::invalid_argument);
  EXPECT_THROW(coord.set_active(out_of_range), std::invalid_argument);
  // A refused list changes nothing.
  EXPECT_EQ(coord.active_count(), 6u);
  EXPECT_TRUE(coord.active(2));
}

TEST(SapsWorker, SparsifyAndMergeRoundTrip) {
  auto engine = blob_engine(2, 1);
  SapsWorker w0(engine, 0, 10.0), w1(engine, 1, 10.0);
  // Perturb worker 1 so models differ.
  engine.sgd_step(1, 0);
  const auto mask = compress::bernoulli_mask(99, engine.param_count(), 10.0);
  const auto v0 = w0.sparsified_model(mask);
  const auto v1 = w1.sparsified_model(mask);
  EXPECT_EQ(v0.size(), compress::mask_popcount(mask));
  w0.merge_peer(mask, v1);
  w1.merge_peer(mask, v0);
  const auto p0 = engine.params(0), p1 = engine.params(1);
  for (std::size_t j = 0; j < p0.size(); ++j) {
    if (mask[j]) {
      EXPECT_FLOAT_EQ(p0[j], p1[j]);
    }
  }
}

TEST(SapsWorker, RejectsBadConstruction) {
  auto engine = blob_engine(2, 1);
  EXPECT_THROW(SapsWorker(engine, 5, 10.0), std::out_of_range);
  EXPECT_THROW(SapsWorker(engine, 0, 0.5), std::invalid_argument);
}

TEST(SapsPsgd, ConvergesOnBlobs) {
  auto engine = blob_engine(8, 5);
  SapsPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  EXPECT_EQ(result.algorithm, "SAPS-PSGD");
  EXPECT_GT(result.final().accuracy, 0.85);
  // No bandwidth matrix and no reputation scoring: nothing else to report.
  EXPECT_TRUE(result.selected_bandwidth.empty());
  EXPECT_TRUE(result.reputation.empty());
  EXPECT_TRUE(result.suspects.empty());
}

TEST(SapsPsgd, TrafficMatchesSparsifiedExchange) {
  auto engine = blob_engine(4, 1);
  SapsPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  // Per round a matched worker moves ≈ 2·(N/c)·4 bytes; with even workers
  // everyone is matched every round.  Allow the binomial mask fluctuation
  // plus the final model collection (worker 0 only).
  const double n = static_cast<double>(engine.param_count());
  const double per_round = 2.0 * (n / 10.0) * 4.0;
  const double expected = per_round * static_cast<double>(result.final().round);
  const double actual = engine.network().worker_bytes(1);  // not the collector
  EXPECT_NEAR(actual, expected, 0.25 * expected);
}

TEST(SapsPsgd, FarLessTrafficThanUncompressedExchange) {
  auto engine = blob_engine(4, 2);
  SapsPsgd algo({.compression = 100.0});
  const auto result = algo.run(engine);
  const double dense_per_round =
      2.0 * 4.0 * static_cast<double>(engine.param_count());
  const double actual_per_round = engine.network().worker_bytes(1) /
                                  static_cast<double>(result.final().round);
  EXPECT_LT(actual_per_round, dense_per_round / 20.0);
}

TEST(SapsPsgd, ConsensusDistanceStaysBounded) {
  auto engine = blob_engine(8, 3);
  SapsPsgd algo({.compression = 10.0});
  algo.run(engine);
  EXPECT_LT(engine.consensus_distance(), 1.0);
}

TEST(SapsPsgd, AdaptiveSelectionRecordsBandwidth) {
  auto bw = net::random_uniform_bandwidth(8, 7);
  auto engine = blob_engine(8, 1, std::move(bw));
  SapsPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  // One bottleneck bandwidth per round.
  EXPECT_FALSE(result.selected_bandwidth.empty());
  EXPECT_EQ(result.selected_bandwidth.size(), result.final().round);
  for (const auto v : result.selected_bandwidth) EXPECT_GT(v, 0.0);
  EXPECT_GT(result.final().comm_seconds, 0.0);
  EXPECT_GT(engine.fabric().control_bytes(), 0.0);
}

TEST(SapsPsgd, RandomStrategyWorksToo) {
  auto engine = blob_engine(8, 5);
  SapsPsgd algo(
      {.compression = 10.0, .strategy = SelectionStrategy::kRandomMatch});
  const auto result = algo.run(engine);
  EXPECT_EQ(result.algorithm, "SAPS-PSGD(random)");
  EXPECT_GT(result.final().accuracy, 0.8);
}

TEST(SapsPsgd, SurvivesWorkerDropoutAndRejoin) {
  auto engine = blob_engine(8, 4);
  algos::Dynamics dyn;
  dyn.on_round = [](std::size_t round, sim::Engine& eng) {
    // Workers 5 and 6 leave for rounds [20, 60), then rejoin.
    const bool away = round >= 20 && round < 60;
    for (const std::size_t w : {5u, 6u}) eng.set_active(w, !away);
  };
  SapsPsgd algo({.compression = 10.0}, std::move(dyn));
  const auto result = algo.run(engine);
  EXPECT_GT(result.final().accuracy, 0.8);  // training survives the churn
}

TEST(SapsPsgd, OnRoundDropoutKeepsCoordinatorAndEngineInSync) {
  // A Dynamics::on_round hook flips only the engine; SAPS mirrors the
  // engine's liveness into its coordinator every round.  The control ledger
  // shows the mirror: every round notifies all n workers (24 bytes each),
  // and only the workers the engine had active send ROUND_END (12 bytes
  // each).  The dropped worker is truly frozen: it neither trains nor
  // gossips, so its parameters are bit-identical across the away window.
  auto engine = blob_engine(6, 3);
  const std::size_t n = engine.workers();
  const std::size_t total_rounds =
      engine.steps_per_epoch() * engine.config().epochs;
  ASSERT_GE(total_rounds, 8u);
  constexpr std::size_t kAway = 3;
  const std::size_t kLeave = total_rounds / 4;
  const std::size_t kReturn = (3 * total_rounds) / 4;
  std::size_t rounds = 0;
  std::size_t engine_active = 0;  // summed over rounds
  std::vector<float> frozen;
  bool frozen_unchanged = true;
  algos::Dynamics dyn;
  dyn.on_round = [&](std::size_t round, sim::Engine& eng) {
    const bool away = round >= kLeave && round < kReturn;
    eng.set_active(kAway, !away);
    ++rounds;
    for (std::size_t w = 0; w < eng.workers(); ++w) {
      engine_active += eng.active(w) ? 1 : 0;
    }
    const auto p = eng.params(kAway);
    if (round == kLeave) frozen.assign(p.begin(), p.end());
    if (round > kLeave && round <= kReturn && !frozen.empty()) {
      for (std::size_t j = 0; j < p.size(); ++j) {
        frozen_unchanged = frozen_unchanged && p[j] == frozen[j];
      }
    }
  };
  SapsPsgd algo({.compression = 10.0}, std::move(dyn));
  const auto result = algo.run(engine);
  ASSERT_EQ(rounds, total_rounds);
  ASSERT_LT(engine_active, total_rounds * n);  // kAway was away
  const double notifies = static_cast<double>(total_rounds * n);
  const double round_ends = static_cast<double>(engine_active);
  const double expected = 24.0 * notifies + 12.0 * round_ends;
  EXPECT_EQ(engine.fabric().control_bytes(), expected);
  ASSERT_FALSE(frozen.empty());
  EXPECT_TRUE(frozen_unchanged);
  EXPECT_GT(result.final().accuracy, 0.8);
  // After the run every worker is active again: the hook rejoined kAway.
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    EXPECT_TRUE(engine.active(w));
  }
}

TEST(SapsPsgd, DeterministicGivenSeed) {
  auto e1 = blob_engine(4, 1);
  auto e2 = blob_engine(4, 1);
  SapsPsgd a({.compression = 10.0}), b({.compression = 10.0});
  const auto r1 = a.run(e1);
  const auto r2 = b.run(e2);
  ASSERT_EQ(r1.history.size(), r2.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.history[i].accuracy, r2.history[i].accuracy);
    EXPECT_DOUBLE_EQ(r1.history[i].worker_mb, r2.history[i].worker_mb);
  }
}

TEST(SapsPsgd, MaskedCoordinatesAgreeAfterExchange) {
  // After each round, matched pairs agree on masked coordinates; over many
  // rounds the models mix toward consensus.
  auto engine = blob_engine(4, 2);
  SapsPsgd algo({.compression = 2.0});
  algo.run(engine);
  const double d = engine.consensus_distance();
  auto engine_no_comm = blob_engine(4, 2);
  // Baseline: pure local SGD with no communication diverges further.
  for (std::size_t e = 0; e < 2; ++e) {
    for (std::size_t s = 0; s < engine_no_comm.steps_per_epoch(); ++s) {
      engine_no_comm.for_each_worker(
          [&](std::size_t w) { engine_no_comm.sgd_step(w, e); });
    }
  }
  EXPECT_LT(d, engine_no_comm.consensus_distance());
}

}  // namespace
}  // namespace saps::core
