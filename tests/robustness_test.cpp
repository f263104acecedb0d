// Edge cases and failure injection: odd worker counts, two-worker minimum,
// dropout during the gossip window, Dirichlet non-IID training, and the
// cross-compressor traffic ordering that motivates the paper (sparsification
// ≫ quantization ≫ dense).
#include <gtest/gtest.h>

#include "algos/psgd.hpp"
#include "algos/qsgd_psgd.hpp"
#include "core/saps.hpp"
#include "data/synthetic.hpp"
#include "gossip/generator.hpp"
#include "nn/models.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

sim::Engine blob_engine(sim::SimConfig cfg) {
  // Historical robustness workload: 3 classes, noisier blobs.
  const test_util::BlobSpec spec{900, 150, 8, 3, 0.35, 777, 16};
  return test_util::blob_engine(std::move(cfg), spec);
}

TEST(Robustness, OddWorkerCountLeavesOneUnmatchedPerRound) {
  sim::SimConfig cfg;
  cfg.workers = 5;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  auto engine = blob_engine(cfg);
  core::SapsPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  EXPECT_GT(result.final().accuracy, 0.85);
  // With 5 workers, each round has 2 pairs; per-round traffic over all
  // workers is 4 messages (one worker idles), so the mean per-worker traffic
  // is 4/5 of the all-matched case.
  EXPECT_GT(engine.network().mean_worker_bytes(), 0.0);
}

TEST(Robustness, TwoWorkersIsTheMinimumTopology) {
  sim::SimConfig cfg;
  cfg.workers = 2;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  auto engine = blob_engine(cfg);
  core::SapsPsgd algo({.compression = 4.0});
  const auto result = algo.run(engine);
  EXPECT_GT(result.final().accuracy, 0.85);
}

TEST(Robustness, DirichletNonIidStillConverges) {
  sim::SimConfig cfg;
  cfg.workers = 6;
  cfg.epochs = 5;
  cfg.batch_size = 16;
  cfg.lr = 0.08;
  cfg.partition = sim::PartitionKind::kDirichlet;
  cfg.dirichlet_alpha = 0.3;
  auto engine = blob_engine(cfg);
  core::SapsPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  EXPECT_GT(result.final().accuracy, 0.7);
}

TEST(Robustness, GossipWindowStaysConnectedUnderChurn) {
  // Workers keep leaving/rejoining; the union of selected edges over a
  // window restricted to CONTINUOUSLY-ACTIVE workers must stay connected.
  const std::size_t n = 12;
  auto bw = net::random_uniform_bandwidth(n, 99);
  gossip::GossipGenerator gen(bw, {.t_thres = 5, .seed = 4});
  const std::size_t window = 10;
  std::vector<gossip::GossipMatrix> history;
  for (std::size_t t = 0; t < 200; ++t) {
    // Worker (t/20 % n) is down for 10-round stretches.
    const std::size_t down = (t / 20) % n;
    for (std::size_t w = 0; w < n; ++w) gen.set_active(w, w != down);
    history.push_back(gen.generate(t));
    gen.set_active(down, true);
  }
  for (std::size_t start = 40; start + window <= 200; start += window) {
    graph::AdjMatrix g(n);
    std::vector<bool> touched(n, false);
    for (std::size_t t = start; t < start + window; ++t) {
      for (const auto& [i, j] : history[t].pairs()) {
        g.set(i, j);
        touched[i] = touched[j] = true;
      }
    }
    // Every worker matched at least once in the window must be reachable
    // from every other matched worker.
    const auto comps = graph::connected_components(g);
    std::size_t comps_with_edges = 0;
    for (const auto& comp : comps) {
      bool any = false;
      for (const auto v : comp) {
        if (touched[v]) any = true;
      }
      if (any && comp.size() > 1) ++comps_with_edges;
    }
    EXPECT_LE(comps_with_edges, 2u) << "window at " << start;
  }
}

TEST(Robustness, AllButTwoWorkersDropped) {
  sim::SimConfig cfg;
  cfg.workers = 6;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  auto engine = blob_engine(cfg);
  algos::Dynamics dyn;
  dyn.on_round = [](std::size_t round, sim::Engine& eng) {
    if (round == 5) {
      for (std::size_t w = 2; w < 6; ++w) eng.set_active(w, false);
    }
  };
  core::SapsPsgd algo({.compression = 10.0}, std::move(dyn));
  const auto result = algo.run(engine);
  // Training continues on the surviving pair.
  EXPECT_GT(result.final().accuracy, 0.8);
}

TEST(Robustness, CompressorTrafficOrdering) {
  // sparsification (c=100) < quantization (1-level QSGD) < dense — the
  // paper's core motivation, measured end-to-end.
  sim::SimConfig cfg;
  cfg.workers = 4;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.lr = 0.1;

  auto saps_engine = blob_engine(cfg);
  core::SapsPsgd saps({.compression = 100.0});
  saps.run(saps_engine);

  auto qsgd_engine = blob_engine(cfg);
  algos::QsgdPsgd qsgd({.levels = 1});
  qsgd.run(qsgd_engine);

  auto dense_engine = blob_engine(cfg);
  algos::PsgdAllReduce psgd;
  psgd.run(dense_engine);

  const double saps_mb = saps_engine.network().mean_worker_bytes();
  const double qsgd_mb = qsgd_engine.network().mean_worker_bytes();
  const double dense_mb = dense_engine.network().mean_worker_bytes();
  EXPECT_LT(saps_mb, qsgd_mb);
  EXPECT_LT(qsgd_mb, dense_mb * 4.0);  // all-gather overhead ≤ n× ring pass
}

TEST(Robustness, EvalEveryRoundsProducesDenseHistory) {
  sim::SimConfig cfg;
  cfg.workers = 4;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.eval_every_rounds = 3;
  auto engine = blob_engine(cfg);
  core::SapsPsgd algo({.compression = 10.0});
  const auto result = algo.run(engine);
  ASSERT_GT(result.history.size(), 3u);
  for (std::size_t i = 2; i < result.history.size() - 1; ++i) {
    EXPECT_EQ(result.history[i].round - result.history[i - 1].round, 3u);
  }
}

}  // namespace
}  // namespace saps
