#include <gtest/gtest.h>

#include "net/bandwidth.hpp"
#include "net/link_model.hpp"
#include "util/threadpool.hpp"

namespace saps::net {
namespace {

TEST(BandwidthMatrix, SymmetrizeMin) {
  BandwidthMatrix b(3);
  b.set(0, 1, 10.0);
  b.set(1, 0, 4.0);
  b.symmetrize_min();
  EXPECT_DOUBLE_EQ(b.get(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(b.get(1, 0), 4.0);
}

TEST(BandwidthMatrix, Rejects) {
  EXPECT_THROW(BandwidthMatrix(1), std::invalid_argument);
  BandwidthMatrix b(2);
  EXPECT_THROW(b.set(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW((void)b.get(0, 5), std::out_of_range);
}

TEST(Fig1, MatrixMatchesPaperValues) {
  const auto b = fig1_city_bandwidth();
  EXPECT_EQ(b.size(), 14u);
  // AliBeijing ↔ AliShanghai: min(1.3, 1.3)/8 MB/s.
  EXPECT_NEAR(b.get(0, 1), 1.3 / 8.0, 1e-9);
  // Frankfurt ↔ London: min(331.2, 276.2)/8.
  EXPECT_NEAR(b.get(6, 7), 276.2 / 8.0, 1e-9);
  // London ↔ Beijing is the paper's pathological 0.2/8 (min of 0.2, 1.6).
  EXPECT_NEAR(b.get(7, 0), 0.2 / 8.0, 1e-9);
  // Symmetry everywhere.
  for (std::size_t i = 0; i < 14; ++i) {
    for (std::size_t j = 0; j < 14; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(b.get(i, j), b.get(j, i));
      }
    }
  }
  EXPECT_EQ(fig1_city_names().size(), 14u);
}

TEST(RandomBandwidth, InRangeAndSymmetric) {
  const auto b = random_uniform_bandwidth(32, 9, 0.0, 5.0);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = i + 1; j < 32; ++j) {
      EXPECT_GT(b.get(i, j), 0.0);
      EXPECT_LE(b.get(i, j), 5.0);
      EXPECT_DOUBLE_EQ(b.get(i, j), b.get(j, i));
    }
  }
}

TEST(RandomBandwidth, Deterministic) {
  const auto a = random_uniform_bandwidth(8, 4);
  const auto b = random_uniform_bandwidth(8, 4);
  EXPECT_DOUBLE_EQ(a.get(2, 5), b.get(2, 5));
}

TEST(LinkModel, TrafficAccounting) {
  LinkModel sim(4);
  sim.start_round();
  sim.transfer(0, 1, 100.0);
  sim.transfer(1, 0, 50.0);
  sim.finish_round();
  EXPECT_DOUBLE_EQ(sim.up_bytes(0), 100.0);
  EXPECT_DOUBLE_EQ(sim.down_bytes(0), 50.0);
  EXPECT_DOUBLE_EQ(sim.worker_bytes(0), 150.0);
  EXPECT_DOUBLE_EQ(sim.worker_bytes(1), 150.0);
  EXPECT_DOUBLE_EQ(sim.mean_worker_bytes(), 75.0);
  EXPECT_EQ(sim.rounds(), 1u);
}

BandwidthMatrix three_node_matrix() {
  BandwidthMatrix b(3);
  b.set(0, 1, 1.0);  // 1 MB/s
  b.set(1, 0, 1.0);
  b.set(0, 2, 10.0);
  b.set(2, 0, 10.0);
  b.set(1, 2, 10.0);
  b.set(2, 1, 10.0);
  return b;
}

TEST(LinkModel, ZeroLatencyRoundTimeIsMaxTransfer) {
  LinkModel sim(three_node_matrix());
  sim.start_round();
  sim.transfer(0, 1, 1e6);  // 1 s on the slow link
  sim.transfer(0, 2, 1e6);  // 0.1 s
  const double t = sim.finish_round();
  EXPECT_NEAR(t, 1.0, 1e-12);
  EXPECT_NEAR(sim.total_seconds(), 1.0, 1e-12);
}

TEST(LinkModel, LatencyExtendsEveryTransfer) {
  LinkOptions opts;
  opts.latency_seconds = 0.25;
  LinkModel sim(three_node_matrix(), opts);
  sim.start_round();
  sim.transfer(0, 1, 1e6);  // 0.25 + 1.0
  sim.transfer(0, 2, 1e6);  // 0.25 + 0.1
  EXPECT_NEAR(sim.finish_round(), 1.25, 1e-12);
}

TEST(LinkModel, LatencyCountsWithoutBandwidthMatrix) {
  // Traffic-only mode used to report zero time; with latency configured the
  // propagation delay still bounds the round.
  LinkOptions opts;
  opts.latency_seconds = 0.5;
  LinkModel sim(std::size_t{3}, opts);
  sim.start_round();
  sim.transfer(0, 1, 123.0);
  EXPECT_NEAR(sim.finish_round(), 0.5, 1e-12);
}

TEST(LinkModel, LatencyMatrixOverridesScalarPerLink) {
  LinkOptions opts;
  opts.latency_seconds = 9.0;  // must be ignored for matrix-covered links
  opts.latency_matrix = {0.0, 0.25, 0.5,   //
                         0.25, 0.0, 0.75,  //
                         0.5, 0.75, 0.0};
  LinkModel sim(three_node_matrix(), opts);
  sim.start_round();
  sim.transfer(0, 1, 1e6);  // 0.25 + 1.0
  sim.transfer(0, 2, 1e6);  // 0.5 + 0.1
  EXPECT_NEAR(sim.finish_round(), 1.25, 1e-12);
  sim.start_round();
  sim.transfer(1, 2, 1e6);  // 0.75 + 0.1
  EXPECT_NEAR(sim.finish_round(), 0.85, 1e-12);
}

TEST(LinkModel, LatencyMatrixCanBeAsymmetric) {
  LinkOptions opts;
  opts.latency_matrix = {0.0, 2.0, 0.0,  //
                         0.5, 0.0, 0.0,  //
                         0.0, 0.0, 0.0};
  LinkModel sim(three_node_matrix(), opts);
  sim.start_round();
  sim.transfer(0, 1, 1e6);  // 2.0 + 1.0
  EXPECT_NEAR(sim.finish_round(), 3.0, 1e-12);
  sim.start_round();
  sim.transfer(1, 0, 1e6);  // 0.5 + 1.0
  EXPECT_NEAR(sim.finish_round(), 1.5, 1e-12);
}

TEST(LinkModel, LatencyMatrixVirtualServerFallsBackToScalar) {
  // A matrix narrower than the node set (the engine appends a virtual
  // parameter server) keeps the scalar latency for uncovered endpoints.
  LinkOptions opts;
  opts.latency_seconds = 0.5;
  opts.latency_matrix = {0.0, 0.1,  //
                         0.1, 0.0};
  LinkModel sim(three_node_matrix(), opts);
  sim.start_round();
  sim.transfer(0, 1, 1e6);  // covered: 0.1 + 1.0
  EXPECT_NEAR(sim.finish_round(), 1.1, 1e-12);
  sim.start_round();
  sim.transfer(0, 2, 1e6);  // node 2 uncovered: 0.5 + 0.1
  EXPECT_NEAR(sim.finish_round(), 0.6, 1e-12);
}

TEST(LinkModel, AllZeroLatencyMatrixMatchesScalarZero) {
  // A matrix of zeros must be bit-identical to the legacy scalar path.
  LinkOptions opts;
  opts.latency_matrix = std::vector<double>(9, 0.0);
  LinkModel with_matrix(three_node_matrix(), opts);
  LinkModel scalar(three_node_matrix());
  for (auto* sim : {&with_matrix, &scalar}) {
    sim->start_round();
    sim->transfer(0, 1, 1e6);
    sim->transfer(0, 2, 1e6);
  }
  EXPECT_EQ(with_matrix.finish_round(), scalar.finish_round());
  EXPECT_EQ(with_matrix.total_seconds(), scalar.total_seconds());
}

TEST(LinkModel, LatencyMatrixCountsWithoutBandwidthMatrix) {
  LinkOptions opts;
  opts.latency_matrix = {0.0, 0.4, 0.2,  //
                         0.4, 0.0, 0.2,  //
                         0.2, 0.2, 0.0};
  LinkModel sim(std::size_t{3}, opts);
  sim.start_round();
  sim.transfer(0, 1, 123.0);
  EXPECT_NEAR(sim.finish_round(), 0.4, 1e-12);
}

TEST(LinkModel, LatencyMatrixRejects) {
  LinkOptions opts;
  opts.latency_matrix = {0.0, 0.1, 0.1};  // not square
  EXPECT_THROW(LinkModel(three_node_matrix(), opts), std::invalid_argument);
  opts.latency_matrix = std::vector<double>(16, 0.0);  // wider than nodes
  EXPECT_THROW(LinkModel(three_node_matrix(), opts), std::invalid_argument);
  opts.latency_matrix = {0.0, -0.1, 0.1, 0.0};  // negative entry
  EXPECT_THROW(LinkModel(three_node_matrix(), opts), std::invalid_argument);
}

TEST(LinkModel, ComputeDelaysTransferStart) {
  LinkModel sim(three_node_matrix());
  sim.start_round();
  sim.compute(0, 2.0);       // node 0 is a straggler
  sim.transfer(0, 2, 1e6);   // starts at 2.0, drains in 0.1
  sim.transfer(1, 2, 1e6);   // starts at 0, drains in 0.1
  EXPECT_NEAR(sim.finish_round(), 2.1, 1e-12);
}

TEST(LinkModel, ComputeOnlyRoundHoldsTheClock) {
  // A straggler that sends nothing still holds the synchronous round open,
  // with or without a bandwidth matrix.
  for (auto sim : {LinkModel(three_node_matrix()), LinkModel(std::size_t{3})}) {
    sim.start_round();
    sim.compute(1, 3.0);
    sim.transfer(0, 2, 1e6);  // 0.1 s over the matrix
    EXPECT_NEAR(sim.finish_round(), 3.0, 1e-12);
  }
}

TEST(LinkModel, ModeledComputeIsDeterministicAndBounded) {
  LinkOptions opts;
  opts.compute_base_seconds = 0.5;
  opts.compute_jitter_seconds = 1.0;
  opts.compute_seed = 7;
  LinkModel a(std::size_t{4}, opts), b(std::size_t{4}, opts);
  for (std::size_t w = 0; w < 4; ++w) {
    const double t = a.modeled_compute(w);
    EXPECT_DOUBLE_EQ(t, b.modeled_compute(w));
    EXPECT_GE(t, 0.5);
    EXPECT_LT(t, 1.5);
  }
  // Per-round jitter: advancing the round changes the draw.
  a.start_round();
  a.finish_round();
  bool any_changed = false;
  for (std::size_t w = 0; w < 4; ++w) {
    any_changed = any_changed || a.modeled_compute(w) != b.modeled_compute(w);
  }
  EXPECT_TRUE(any_changed);
}

TEST(LinkModel, DisabledComputeModelIsZero) {
  LinkModel sim(std::size_t{3});
  EXPECT_DOUBLE_EQ(sim.modeled_compute(0), 0.0);
}

TEST(LinkModel, ProtocolErrors) {
  LinkModel sim(std::size_t{3});
  EXPECT_THROW(sim.transfer(0, 1, 1.0), std::logic_error);  // outside round
  EXPECT_THROW(sim.compute(0, 1.0), std::logic_error);      // outside round
  sim.start_round();
  EXPECT_THROW(sim.start_round(), std::logic_error);  // double open
  EXPECT_THROW(sim.transfer(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(sim.transfer(0, 9, 1.0), std::invalid_argument);
  EXPECT_THROW(sim.transfer(0, 1, -5.0), std::invalid_argument);
  EXPECT_THROW(sim.compute(9, 1.0), std::out_of_range);
  EXPECT_THROW(sim.compute(0, -1.0), std::invalid_argument);
  sim.finish_round();
  EXPECT_THROW(sim.finish_round(), std::logic_error);

  // A transfer over a zero-bandwidth link is refused at the call and
  // charges nothing, so the round's fold has nothing left that can throw.
  BandwidthMatrix dead(3);
  dead.set(0, 1, 1.0);
  dead.set(1, 0, 1.0);
  LinkModel linked(dead);
  linked.start_round();
  EXPECT_THROW(linked.transfer(0, 2, 1.0), std::logic_error);
  linked.transfer(0, 1, 1e6);
  EXPECT_EQ(linked.finish_round(), 1.0);
  EXPECT_EQ(linked.worker_bytes(2), 0.0);
}

// The calls node `node`'s owner makes in one round: two compute charges,
// a frame to the next of nodes 0-3, and from nodes 0 and 1 three frames
// each (one delayed) to node 4, whose owner only computes.
void stage_node(LinkModel& link, std::size_t node) {
  link.compute(node, 0.01 * static_cast<double>(node + 1));
  link.compute(node, 1.0 / 3.0);
  if (node == 4) return;
  link.transfer(node, (node + 1) % 4,
                1e5 / 3.0 * static_cast<double>(node + 1));
  if (node >= 2) return;
  for (std::size_t k = 1; k <= 3; ++k) {
    link.transfer(node, 4, 1e5 / static_cast<double>(3 + node + k),
                  k == 2 ? 0.004 : 0.0);
  }
}

TEST(LinkModel, PooledRoundEqualsSerialRound) {
  // Each task writes only its own node's lane, and the fold takes the lanes
  // in ascending source order, so a round staged from a 4-thread pool adds
  // up to the same bits as the same calls made serially, here in
  // descending node order.
  LinkOptions opts;
  opts.latency_seconds = 1e-3;
  const auto bw = random_uniform_bandwidth(5, 11);
  LinkModel serial(bw, opts);
  LinkModel pooled(bw, opts);
  serial.start_round();
  for (std::size_t node = 5; node-- > 0;) stage_node(serial, node);
  const double serial_seconds = serial.finish_round();

  ThreadPool pool(4);
  pooled.start_round();
  pool.run_tasks(5, [&](std::size_t node) { stage_node(pooled, node); });
  EXPECT_EQ(pooled.finish_round(), serial_seconds);
  EXPECT_EQ(pooled.total_seconds(), serial.total_seconds());
  for (std::size_t node = 0; node < 5; ++node) {
    SCOPED_TRACE(node);
    EXPECT_EQ(pooled.up_bytes(node), serial.up_bytes(node));
    EXPECT_EQ(pooled.down_bytes(node), serial.down_bytes(node));
    EXPECT_EQ(pooled.worker_bytes(node), serial.worker_bytes(node));
  }
  EXPECT_GT(serial.down_bytes(4), 0.0);
}

TEST(LinkModel, StatWorkerCountExcludesServer) {
  LinkModel sim(std::size_t{3});
  sim.set_stat_worker_count(2);
  sim.start_round();
  sim.transfer(0, 2, 100.0);  // node 2 plays "server"
  sim.finish_round();
  EXPECT_DOUBLE_EQ(sim.mean_worker_bytes(), 50.0);  // only nodes 0,1 counted
}

TEST(BestServer, PicksHighestMeanBandwidthNode) {
  BandwidthMatrix b(3);
  b.set(0, 1, 1.0);
  b.set(1, 0, 1.0);
  b.set(0, 2, 1.0);
  b.set(2, 0, 1.0);
  b.set(1, 2, 10.0);
  b.set(2, 1, 10.0);
  // Node 0 mean = 1; node 1 mean = 5.5; node 2 mean = 5.5 → picks 1 (first).
  EXPECT_EQ(best_server_node(b), 1u);
}

TEST(VirtualServer, MirrorsBestNodeLinks) {
  BandwidthMatrix b(3);
  b.set(0, 1, 2.0);
  b.set(1, 0, 2.0);
  b.set(0, 2, 3.0);
  b.set(2, 0, 3.0);
  b.set(1, 2, 8.0);
  b.set(2, 1, 8.0);
  const auto ext = with_virtual_server(b);
  EXPECT_EQ(ext.size(), 4u);
  const auto best = best_server_node(b);
  for (std::size_t j = 0; j < 3; ++j) {
    if (j == best) continue;
    EXPECT_DOUBLE_EQ(ext.get(3, j), b.get(best, j));
  }
  EXPECT_GT(ext.get(3, best), 0.0);
}

}  // namespace
}  // namespace saps::net
