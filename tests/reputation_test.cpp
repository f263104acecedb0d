// Attack-aware reputation scoring (core/reputation.hpp) and the
// saps-strategy=reputation selection path it feeds.
//
// Pinned here:
//  - anomaly_score algebra: honest ~0, sign-flip ~2, scale deviations as
//    |log norm ratio|, degenerate inputs clamp to 0;
//  - the observation-gated EMA fold: fixed order, cross-lane call order
//    irrelevant, unobserved peers hold their score;
//  - detection metrics: the FedAvg server monitor flags exactly the
//    scheduled attackers (precision = recall = 1 on the blob workload);
//  - determinism: a reputation-defended SAPS run is bit-identical across
//    thread counts {0, 1, 4} and across reruns, and a population-scale
//    cohort run (reputation matching, no bandwidth matrix) is bit-identical
//    across reruns.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "algos/fedavg.hpp"
#include "core/reputation.hpp"
#include "core/saps.hpp"
#include "net/bandwidth.hpp"
#include "nn/models.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 4};

// --- anomaly_score -----------------------------------------------------------

TEST(AnomalyScore, HonestUpdatesScoreNearZeroAndAttacksScoreHigh) {
  const std::vector<float> f{1.0f, -2.0f, 0.5f, 3.0f};
  EXPECT_EQ(core::anomaly_score(f, f), 0.0);

  // A sign flip keeps the norm (no norm term) and inverts the cosine: 2.
  std::vector<float> flipped = f;
  for (auto& x : flipped) x = -x;
  EXPECT_NEAR(core::anomaly_score(flipped, f), 2.0, 1e-12);

  // A pure rescale keeps the cosine and contributes |log s|.
  std::vector<float> scaled = f;
  for (auto& x : scaled) x *= 10.0f;
  EXPECT_NEAR(core::anomaly_score(scaled, f), std::log(10.0), 1e-6);

  // Degenerate inputs never throw and never accuse: empty, mismatched, and
  // zero-norm payloads all score 0.
  EXPECT_EQ(core::anomaly_score({}, f), 0.0);
  EXPECT_EQ(core::anomaly_score(f, std::vector<float>{1.0f}), 0.0);
  EXPECT_EQ(core::anomaly_score(std::vector<float>(4, 0.0f), f), 0.0);
}

// --- ReputationMonitor -------------------------------------------------------

TEST(ReputationMonitor, ValidatesConfigAndObserverRange) {
  EXPECT_THROW(core::ReputationMonitor(4, {.decay = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(core::ReputationMonitor(4, {.decay = -0.1}),
               std::invalid_argument);

  core::ReputationMonitor monitor(4);
  const std::vector<float> v{1.0f, 2.0f};
  EXPECT_NO_THROW(monitor.observe(4, 0, v, v));  // lane 4 = the server
  EXPECT_THROW(monitor.observe(5, 0, v, v), std::out_of_range);
  EXPECT_THROW(monitor.observe(0, 4, v, v), std::out_of_range);
  EXPECT_THROW((void)monitor.score(4), std::out_of_range);
}

TEST(ReputationMonitor, FoldIsIndependentOfStagingCallOrder) {
  const std::vector<float> f{1.0f, -2.0f, 0.5f, 3.0f};
  std::vector<float> flipped = f;
  for (auto& x : flipped) x = -x;
  std::vector<float> noisy = f;
  noisy[0] += 0.25f;

  core::ReputationMonitor a(4, {.decay = 0.5});
  a.observe(0, 2, flipped, f);
  a.observe(1, 2, noisy, f);
  a.observe(3, 1, noisy, f);
  a.end_round();

  // Same observations staged in reverse cross-lane order: the fold is by
  // lane index, so the scores are bit-identical.
  core::ReputationMonitor b(4, {.decay = 0.5});
  b.observe(3, 1, noisy, f);
  b.observe(1, 2, noisy, f);
  b.observe(0, 2, flipped, f);
  b.end_round();

  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(a.score(w), b.score(w)) << "worker " << w;
  }
}

TEST(ReputationMonitor, ObservationGatedEmaHoldsUnobservedScores) {
  const std::vector<float> f{1.0f, -2.0f, 0.5f, 3.0f};
  std::vector<float> flipped = f;
  for (auto& x : flipped) x = -x;

  core::ReputationMonitor monitor(4, {.decay = 0.5, .flag_threshold = 2.0});
  monitor.observe(0, 1, flipped, f);
  monitor.end_round();
  const double after_flip = monitor.score(1);
  EXPECT_NEAR(after_flip, 2.0, 1e-12);
  EXPECT_TRUE(monitor.suspected(1));
  EXPECT_LT(monitor.trust(1), monitor.trust(0));
  EXPECT_EQ(monitor.suspects(), (std::vector<std::size_t>{1}));

  // No observation of peer 1 this round: its score HOLDS (no silent
  // rehabilitation of an isolated attacker), others stay at zero.
  monitor.observe(0, 2, f, f);
  monitor.end_round();
  EXPECT_EQ(monitor.score(1), after_flip);
  EXPECT_EQ(monitor.score(2), 0.0);
  EXPECT_EQ(monitor.rounds(), 2u);

  // Observed again: decay * old + mean(new anomalies), exactly.
  monitor.observe(0, 1, flipped, f);
  monitor.observe(2, 1, f, f);
  monitor.end_round();
  EXPECT_EQ(monitor.score(1), 0.5 * after_flip + 0.5 * (2.0 + 0.0));
}

// --- detection metrics (FedAvg server monitor) -------------------------------

TEST(Reputation, FedAvgServerMonitorFlagsExactlyTheAttackers) {
  const test_util::BlobSpec blob;
  const auto& [train, test] = test_util::blob_data(blob);
  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.faults.fault_seed = 5;
  cfg.faults.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                           .mode = sim::ByzantineMode::kSignFlip},
                          {.worker = 6, .from_round = 1, .to_round = 0,
                           .mode = sim::ByzantineMode::kModelReplacement}};
  sim::Engine engine(
      cfg, train, test,
      [&] {
        return nn::make_mlp({blob.features}, {blob.hidden}, blob.classes, 42);
      },
      std::nullopt);

  algos::Dynamics dyn;
  dyn.reputation_decay = 0.5;
  algos::FedAvg algo({.fraction = 1.0, .local_steps = 1}, std::move(dyn));
  (void)algo.run(engine);

  const auto* monitor = algo.reputation();
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->suspects(), (std::vector<std::size_t>{1, 6}));
}

// --- determinism of the defended run ----------------------------------------

struct DefendedSnapshot {
  std::vector<std::vector<float>> params;
  std::vector<double> scores;
  std::vector<std::size_t> suspects;
  double accuracy = 0.0;
};

DefendedSnapshot run_defended_saps(std::size_t threads) {
  const test_util::BlobSpec blob;
  const auto& [train, test] = test_util::blob_data(blob);
  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.threads = threads;
  cfg.faults.fault_seed = 5;
  cfg.faults.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                           .mode = sim::ByzantineMode::kCollusion},
                          {.worker = 4, .from_round = 1, .to_round = 0,
                           .mode = sim::ByzantineMode::kCollusion},
                          {.worker = 6, .from_round = 1, .to_round = 0,
                           .mode = sim::ByzantineMode::kCollusion}};
  cfg.faults.collude_group = {1, 4, 6};
  cfg.faults.collude_min = 2;
  sim::Engine engine(
      cfg, train, test,
      [&] {
        return nn::make_mlp({blob.features}, {blob.hidden}, blob.classes, 42);
      },
      net::random_uniform_bandwidth(cfg.workers, 99));

  core::SapsConfig saps{.compression = 10.0};
  saps.strategy = core::SelectionStrategy::kAdaptiveReputation;
  core::SapsPsgd algo(saps, {.reputation_decay = 0.5});
  const auto result = algo.run(engine);

  DefendedSnapshot snap;
  snap.accuracy = result.final().accuracy;
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    const auto p = engine.params(w);
    snap.params.emplace_back(p.begin(), p.end());
  }
  const auto* monitor = algo.reputation();
  for (std::size_t w = 0; w < monitor->workers(); ++w) {
    snap.scores.push_back(monitor->score(w));
  }
  snap.suspects = monitor->suspects();
  return snap;
}

void expect_same_snapshot(const DefendedSnapshot& a,
                          const DefendedSnapshot& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.suspects, b.suspects);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t w = 0; w < a.scores.size(); ++w) {
    EXPECT_EQ(a.scores[w], b.scores[w]) << "score of worker " << w;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t w = 0; w < a.params.size(); ++w) {
    ASSERT_EQ(a.params[w], b.params[w]) << "params of worker " << w;
  }
}

TEST(Reputation, DefendedSapsRunBitIdenticalAcrossThreadsAndReruns) {
  std::unique_ptr<DefendedSnapshot> base;
  for (const auto threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto snap = run_defended_saps(threads);
    if (!base) {
      base = std::make_unique<DefendedSnapshot>(std::move(snap));
      // The defense actually engaged — otherwise the test is vacuous.
      EXPECT_EQ(base->suspects, (std::vector<std::size_t>{1, 4, 6}));
    } else {
      expect_same_snapshot(*base, snap);
    }
  }
  const auto again = run_defended_saps(0);
  expect_same_snapshot(*base, again);
}

TEST(Reputation, CohortPopulationDefendedRunIsDeterministicAcrossReruns) {
  // Population-scale cohort sampling + reputation matching (no bandwidth
  // matrix, so the trust-weighted greedy matcher is the selection path).
  const auto run_once = [] {
    scenario::ScenarioSpec spec;
    spec.set("workload", "blob");
    spec.set("algorithm", "saps");
    spec.set("workers", "4");
    spec.set("population", "12");
    spec.set("cohort", "6");
    spec.set("epochs", "2");
    spec.set("batch", "16");
    spec.set("lr", "0.1");
    spec.set("blob-train", "64");
    spec.set("blob-test", "32");
    spec.set("saps-c", "4");
    spec.set("saps-strategy", "reputation");
    spec.set("reputation-decay", "0.5");
    spec.set("byzantine", "1@1:sign-flip,9@1:sign-flip");
    scenario::Runner runner(spec);
    return runner.run("saps");
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.final_params.size(), second.final_params.size());
  for (std::size_t i = 0; i < first.final_params.size(); ++i) {
    ASSERT_EQ(first.final_params[i], second.final_params[i]) << "coord " << i;
  }
  ASSERT_EQ(first.result.history.size(), second.result.history.size());
  for (std::size_t i = 0; i < first.result.history.size(); ++i) {
    EXPECT_EQ(first.result.history[i].accuracy,
              second.result.history[i].accuracy);
  }
  const auto* saps_algo =
      dynamic_cast<const core::SapsPsgd*>(first.algorithm.get());
  ASSERT_NE(saps_algo, nullptr);
  ASSERT_NE(saps_algo->reputation(), nullptr);
  const auto* saps_again =
      dynamic_cast<const core::SapsPsgd*>(second.algorithm.get());
  EXPECT_EQ(saps_algo->reputation()->suspects(),
            saps_again->reputation()->suspects());
}

}  // namespace
}  // namespace saps
