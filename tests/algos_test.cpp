// Behaviour and accounting tests for the six baseline algorithms and the
// round driver all eight algorithm keys run on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algos/d_psgd.hpp"
#include "algos/fedavg.hpp"
#include "algos/psgd.hpp"
#include "algos/qsgd_psgd.hpp"
#include "algos/topk_psgd.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "scenario/registry.hpp"
#include "test_util.hpp"

namespace saps::algos {
namespace {

using test_util::blob_engine;

// Builds a registry key's algorithm from its default parameters.
std::unique_ptr<Algorithm> make_default(const std::string& key, Dynamics dyn) {
  const auto& entry = scenario::Registry::instance().algorithm(key);
  const auto params = scenario::resolve_entry_params(entry.params, {});
  return entry.make(params, std::move(dyn));
}

// The driver owns every algorithm's round: Dynamics::on_round fires once per
// round, with indices 0…R−1 in order.  A synchronous run has epochs ×
// steps_per_epoch rounds; a FedAvg-family run (one local epoch per round by
// default) has one per epoch.
TEST(RoundDriver, OnRoundFiresOncePerRoundInOrderForEveryKey) {
  for (const auto& key : scenario::Registry::instance().algorithm_keys()) {
    SCOPED_TRACE(key);
    auto engine = blob_engine(4, 2);
    const bool fedavg = key == "fedavg" || key == "sfedavg";
    const std::size_t total_rounds =
        (fedavg ? 1 : engine.steps_per_epoch()) * engine.config().epochs;
    std::vector<std::size_t> seen;
    Dynamics dyn;
    dyn.on_round = [&](std::size_t round, sim::Engine&) {
      seen.push_back(round);
    };
    const auto result = make_default(key, std::move(dyn))->run(engine);
    ASSERT_EQ(seen.size(), total_rounds);
    EXPECT_EQ(result.final().round, total_rounds);
    for (std::size_t r = 0; r < seen.size(); ++r) EXPECT_EQ(seen[r], r);
  }
}

// On a pooled engine the hook runs after the round's cohort draw, so the
// roster it sees is the draw of the algorithm's cohort key: round index for
// SAPS-PSGD, index + 1 for the FedAvg family (which counts rounds from 1).
TEST(RoundDriver, OnRoundSeesTheCohortOfEachAlgorithmsKey) {
  for (const std::string key : {"saps", "fedavg", "sfedavg"}) {
    SCOPED_TRACE(key);
    const std::size_t offset = key == "saps" ? 0 : 1;
    sim::SimConfig cfg;
    cfg.workers = 16;
    cfg.cohort = 4;
    cfg.sample_seed = 777;
    cfg.epochs = 2;
    cfg.batch_size = 16;
    cfg.lr = 0.1;
    auto engine = blob_engine(cfg);
    auto twin = blob_engine(cfg);
    std::vector<std::vector<std::size_t>> rosters;
    Dynamics dyn;
    dyn.on_round = [&](std::size_t round, sim::Engine& eng) {
      EXPECT_EQ(round, rosters.size());
      rosters.emplace_back(eng.roster().begin(), eng.roster().end());
    };
    const auto result = make_default(key, std::move(dyn))->run(engine);
    ASSERT_EQ(rosters.size(), result.final().round);
    ASSERT_GT(rosters.size(), 1u);
    for (std::size_t r = 0; r < rosters.size(); ++r) {
      const auto cohort = twin.begin_round_cohort(r + offset);
      const std::vector<std::size_t> drawn(cohort.begin(), cohort.end());
      EXPECT_EQ(rosters[r], drawn) << "round " << r;
    }
  }
}

TEST(Psgd, ConvergesAndKeepsReplicasInSync) {
  auto engine = blob_engine(4, 3);
  PsgdAllReduce algo;
  const auto result = algo.run(engine);
  EXPECT_EQ(result.algorithm, "PSGD");
  EXPECT_GT(result.final().accuracy, 0.9);
  EXPECT_NEAR(engine.consensus_distance(), 0.0, 1e-9);
  // Accuracy history is recorded from round 0.
  EXPECT_EQ(result.history.front().round, 0u);
  EXPECT_GT(result.history.size(), 2u);
}

TEST(Psgd, TrafficMatchesTwoModelsPerRound) {
  auto engine = blob_engine(4, 1);
  PsgdAllReduce algo;
  const auto result = algo.run(engine);
  const double n_bytes = 4.0 * static_cast<double>(engine.param_count());
  const double expected =
      2.0 * n_bytes * static_cast<double>(result.final().round);
  EXPECT_NEAR(engine.network().worker_bytes(0), expected, 1.0);
}

TEST(TopkPsgd, ConvergesWithModestCompression) {
  auto engine = blob_engine(4, 3);
  TopkPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  EXPECT_GT(result.final().accuracy, 0.85);
  EXPECT_NEAR(engine.consensus_distance(), 0.0, 1e-9);  // replicas identical
}

TEST(TopkPsgd, TrafficScalesWithWorkerCount) {
  auto e4 = blob_engine(4, 1);
  auto e8 = blob_engine(8, 1);
  TopkPsgd algo({.compression = 10.0});
  algo.run(e4);
  algo.run(e8);
  const double per_round_4 =
      e4.network().worker_bytes(0) / static_cast<double>(e4.network().rounds());
  const double per_round_8 =
      e8.network().worker_bytes(0) / static_cast<double>(e8.network().rounds());
  // Table I: worker cost ∝ n (all-gather); per ring hop it is constant, and
  // hops per iteration grow with n — per-iteration bytes roughly double.
  EXPECT_GT(per_round_8, per_round_4 * 0.8);
}

TEST(FedAvg, ConvergesOnIidBlobs) {
  auto engine = blob_engine(4, 4);
  FedAvg algo({.fraction = 0.5});
  const auto result = algo.run(engine);
  EXPECT_EQ(result.algorithm, "FedAvg");
  EXPECT_GT(result.final().accuracy, 0.85);
}

TEST(FedAvg, RoundTrafficIsTwoModelsPerParticipant) {
  auto engine = blob_engine(4, 2);
  FedAvg algo({.fraction = 0.5});
  const auto result = algo.run(engine);
  const double n_bytes = 4.0 * static_cast<double>(engine.param_count());
  // 2 participants/round × 2N each; mean over the 4 workers = N per round.
  const double total_mean = engine.network().mean_worker_bytes();
  EXPECT_NEAR(total_mean,
              n_bytes * static_cast<double>(result.final().round), 1e3);
}

TEST(SFedAvg, SparsifiedUploadIsSmaller) {
  // The masked upload only refreshes ~1/c of the global model per round, so
  // S-FedAvg needs more rounds than FedAvg to cover all coordinates — the
  // accuracy bar here reflects the coverage 1-(1-1/c)^rounds.
  auto plain_engine = blob_engine(4, 6);
  auto sparse_engine = blob_engine(4, 6);
  FedAvg plain({.fraction = 0.5});
  FedAvg sparse({.fraction = 0.5, .upload_compression = 5.0});
  plain.run(plain_engine);
  const auto rs = sparse.run(sparse_engine);
  EXPECT_EQ(rs.algorithm, "S-FedAvg");
  EXPECT_LT(sparse_engine.network().mean_worker_bytes(),
            plain_engine.network().mean_worker_bytes());
  EXPECT_GT(rs.final().accuracy, 0.55);
}

TEST(FedAvg, RejectsBadConfig) {
  EXPECT_THROW(FedAvg({.fraction = 0.0}), std::invalid_argument);
  EXPECT_THROW(FedAvg({.fraction = 1.5}), std::invalid_argument);
  EXPECT_THROW(FedAvg({.fraction = 0.5, .upload_compression = 0.5}),
               std::invalid_argument);
}

TEST(DPsgd, ConvergesAndShrinksConsensusGap) {
  auto engine = blob_engine(6, 4);
  DPsgd algo;
  const auto result = algo.run(engine);
  EXPECT_GT(result.final().accuracy, 0.85);
  // Ring gossip never reaches exact consensus but stays bounded.
  EXPECT_LT(engine.consensus_distance(), 1.0);
}

TEST(DPsgd, TrafficIsFourModelsPerRound) {
  auto engine = blob_engine(4, 1);
  DPsgd algo;
  const auto result = algo.run(engine);
  const double n_bytes = 4.0 * static_cast<double>(engine.param_count());
  EXPECT_NEAR(engine.network().worker_bytes(0),
              4.0 * n_bytes * static_cast<double>(result.final().round), 1.0);
}

TEST(DcdPsgd, ConvergesWithPaperCompression) {
  auto engine = blob_engine(6, 4);
  DcdPsgd algo({.compression = 4.0});
  const auto result = algo.run(engine);
  EXPECT_EQ(result.algorithm, "DCD-PSGD");
  EXPECT_GT(result.final().accuracy, 0.8);
}

TEST(DcdPsgd, UsesLessTrafficThanDPsgd) {
  auto d_engine = blob_engine(4, 1);
  auto dcd_engine = blob_engine(4, 1);
  DPsgd d;
  DcdPsgd dcd({.compression = 4.0});
  d.run(d_engine);
  dcd.run(dcd_engine);
  EXPECT_LT(dcd_engine.network().worker_bytes(0),
            d_engine.network().worker_bytes(0));
}

TEST(QsgdPsgd, ConvergesAndKeepsReplicasInSync) {
  auto engine = blob_engine(4, 3);
  QsgdPsgd algo({.levels = 4});
  const auto result = algo.run(engine);
  EXPECT_EQ(result.algorithm, "QSGD-PSGD");
  EXPECT_GT(result.final().accuracy, 0.85);
  EXPECT_NEAR(engine.consensus_distance(), 0.0, 1e-9);
}

TEST(QsgdPsgd, CompressionCappedBelowSparsification) {
  // The paper's related-work argument: b-bit quantization saves at most
  // 32/b, so per-round traffic stays within a small factor of dense.
  auto dense = blob_engine(4, 1);
  auto quant = blob_engine(4, 1);
  PsgdAllReduce psgd;
  QsgdPsgd qsgd({.levels = 1});  // most aggressive: ~2 bits/coordinate
  psgd.run(dense);
  qsgd.run(quant);
  const double ratio =
      dense.network().worker_bytes(0) / quant.network().worker_bytes(0);
  // All-gather vs ring-pass conventions differ by ~n; the per-coordinate
  // saving itself must stay below 32x.
  EXPECT_LT(ratio, 32.0);
}

TEST(RunResult, FirstReaching) {
  sim::RunResult r;
  r.history = {{0, 0.0, 1.0, 0.2, 0.0, 0.0},
               {10, 1.0, 0.5, 0.6, 1.0, 2.0},
               {20, 2.0, 0.3, 0.9, 2.0, 4.0}};
  EXPECT_EQ(r.first_reaching(0.5)->round, 10u);
  EXPECT_EQ(r.first_reaching(0.95), nullptr);
}

}  // namespace
}  // namespace saps::algos
