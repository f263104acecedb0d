#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gossip/generator.hpp"
#include "gossip/gossip_matrix.hpp"
#include "gossip/peer_selection.hpp"
#include "net/bandwidth.hpp"
#include "util/rng.hpp"

namespace saps::gossip {
namespace {

graph::Matching pairing(std::size_t n,
                        std::vector<std::pair<std::size_t, std::size_t>> ps) {
  graph::Matching m;
  m.partner.assign(n, graph::Matching::kUnmatched);
  for (const auto& [a, b] : ps) {
    m.partner[a] = b;
    m.partner[b] = a;
  }
  return m;
}

TEST(GossipMatrix, IdentityWhenUnmatched) {
  GossipMatrix w(4);
  EXPECT_TRUE(w.is_doubly_stochastic());
  EXPECT_EQ(w.pairs().size(), 0u);
  EXPECT_EQ(w.peer(2), 2u);
}

TEST(GossipMatrix, FromMatchingIsDoublyStochastic) {
  const auto w = GossipMatrix(pairing(5, {{0, 3}, {1, 4}}));
  EXPECT_TRUE(w.is_doubly_stochastic());
  EXPECT_EQ(w.peer(0), 3u);
  EXPECT_EQ(w.peer(2), 2u);  // odd one out keeps itself
  const auto d = w.dense();
  EXPECT_DOUBLE_EQ(d[0 * 5 + 0], 0.5);
  EXPECT_DOUBLE_EQ(d[0 * 5 + 3], 0.5);
  EXPECT_DOUBLE_EQ(d[2 * 5 + 2], 1.0);

  // The selected links' bandwidth: only the two matched pairs count, not
  // the faster links to the unmatched worker 2.
  net::BandwidthMatrix bw(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) bw.set(i, j, 4.0);
    }
  }
  bw.set(0, 3, 1.5);
  bw.set(3, 0, 1.5);
  bw.set(1, 4, 2.5);
  bw.set(4, 1, 2.5);
  const auto selected = selected_bandwidth(w, bw);
  EXPECT_DOUBLE_EQ(selected.min, 1.5);
  EXPECT_DOUBLE_EQ(selected.mean, 2.0);
  const auto none = selected_bandwidth(GossipMatrix(5), bw);
  EXPECT_DOUBLE_EQ(none.min, 0.0);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
}

TEST(GossipMatrix, RejectsMalformedMatching) {
  graph::Matching bad;
  bad.partner = {1, 0, 1};  // 2 points at 1, but 1 points at 0
  EXPECT_THROW(GossipMatrix{bad}, std::invalid_argument);
}

TEST(GossipMatrix, ApplyAveragesPairs) {
  const auto w = GossipMatrix(pairing(4, {{0, 1}}));
  std::vector<std::vector<float>> models = {
      {1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}, {7.0f, 8.0f}};
  GossipMatrix::apply(w, models);
  EXPECT_FLOAT_EQ(models[0][0], 2.0f);
  EXPECT_FLOAT_EQ(models[1][0], 2.0f);
  EXPECT_FLOAT_EQ(models[2][0], 5.0f);  // unmatched untouched
}

TEST(GossipMatrix, ApplyPreservesGlobalMean) {
  const auto w = GossipMatrix(pairing(4, {{0, 2}, {1, 3}}));
  std::vector<std::vector<float>> models = {
      {1.0f}, {2.0f}, {3.0f}, {10.0f}};
  GossipMatrix::apply(w, models);
  float sum = 0.0f;
  for (const auto& m : models) sum += m[0];
  EXPECT_FLOAT_EQ(sum, 16.0f);  // doubly stochastic ⇒ mean preserved
}

TEST(RandomMatchSelector, PerfectMatchingOnEvenWorkers) {
  RandomMatchSelector sel(32, 7);
  for (std::size_t t = 0; t < 20; ++t) {
    const auto w = sel.select(t);
    EXPECT_EQ(w.pairs().size(), 16u);
    EXPECT_TRUE(w.is_doubly_stochastic());
  }
}

TEST(RandomMatchSelector, OddWorkerCountLeavesOneOut) {
  RandomMatchSelector sel(7, 3);
  const auto w = sel.select(0);
  EXPECT_EQ(w.pairs().size(), 3u);
}

TEST(RingTopology, NeighborsAndBottleneck) {
  RingTopology ring(5);
  EXPECT_EQ(ring.right(4), 0u);
  EXPECT_EQ(ring.left(0), 4u);
  auto bw = net::random_uniform_bandwidth(5, 3);
  const double mn = ring.bottleneck_bandwidth(bw);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_LE(mn, bw.get(v, ring.right(v)));
  }
}

TEST(MedianBandwidth, OfUniformMatrix) {
  auto bw = net::random_uniform_bandwidth(16, 5, 0.0, 5.0);
  const double med = median_bandwidth(bw);
  EXPECT_GT(med, 1.0);
  EXPECT_LT(med, 4.0);
}

class GeneratorTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorTest, AlwaysProducesValidDoublyStochasticMatching) {
  const std::size_t t_thres = GetParam();
  auto bw = net::random_uniform_bandwidth(14, 21);
  GossipGenerator gen(bw, {.t_thres = t_thres, .seed = 9});
  for (std::size_t t = 0; t < 100; ++t) {
    const auto w = gen.generate(t);
    EXPECT_TRUE(w.is_doubly_stochastic());
    EXPECT_EQ(w.pairs().size(), 7u);  // even n → perfect matching
  }
}

TEST_P(GeneratorTest, PcEdgesConnectAllWorkersWithinWindow) {
  // Assumption 3's structural requirement: the edges selected inside any
  // T_thres window must connect the graph.
  const std::size_t t_thres = GetParam();
  auto bw = net::random_uniform_bandwidth(16, 31);
  GossipGenerator gen(bw, {.t_thres = t_thres, .seed = 5});
  const std::size_t rounds = 30 * t_thres;
  std::vector<GossipMatrix> history;
  history.reserve(rounds);
  for (std::size_t t = 0; t < rounds; ++t) history.push_back(gen.generate(t));

  for (std::size_t start = 0; start + 2 * t_thres <= rounds;
       start += t_thres) {
    graph::AdjMatrix window(16);
    for (std::size_t t = start; t < start + 2 * t_thres; ++t) {
      for (const auto& [i, j] : history[t].pairs()) window.set(i, j);
    }
    EXPECT_TRUE(graph::is_connected(window))
        << "window starting at round " << start;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, GeneratorTest,
                         ::testing::Values(2, 5, 10, 20));

TEST(Generator, PrefersHighBandwidthPairsWhenConnected) {
  // Over many rounds, the mean selected-pair bandwidth must exceed both the
  // global mean and the random-matching mean (the Fig. 5 claim).
  auto bw = net::random_uniform_bandwidth(32, 77);
  GossipGenerator gen(bw, {.t_thres = 10, .seed = 3});
  RandomMatchSelector rnd(32, 3);

  double adaptive_sum = 0.0, random_sum = 0.0;
  const std::size_t rounds = 200;
  for (std::size_t t = 0; t < rounds; ++t) {
    adaptive_sum += selected_bandwidth(gen.generate(t), bw).min;
    random_sum += selected_bandwidth(rnd.select(t), bw).min;
  }
  EXPECT_GT(adaptive_sum / rounds, 2.0 * random_sum / rounds);
}

TEST(Generator, InactiveWorkersNeverMatched) {
  auto bw = net::random_uniform_bandwidth(10, 13);
  GossipGenerator gen(bw, {.t_thres = 5, .seed = 2});
  const std::vector<std::size_t> without_3_and_7 = {0, 1, 2, 4, 5, 6, 8, 9};
  gen.set_active(without_3_and_7);
  for (std::size_t t = 0; t < 50; ++t) {
    const auto w = gen.generate(t);
    EXPECT_EQ(w.peer(3), 3u);
    EXPECT_EQ(w.peer(7), 7u);
    EXPECT_TRUE(w.is_doubly_stochastic());
  }
  const std::vector<std::size_t> without_7 = {0, 1, 2, 3, 4, 5, 6, 8, 9};
  gen.set_active(without_7);
  bool three_matched = false;
  for (std::size_t t = 50; t < 80; ++t) {
    if (gen.generate(t).peer(3) != 3) three_matched = true;
  }
  EXPECT_TRUE(three_matched);
}

TEST(Generator, RejectsAnActiveListThatIsUnsortedOrOutOfRange) {
  auto bw = net::random_uniform_bandwidth(4, 1);
  GossipGenerator gen(bw, {.t_thres = 5, .seed = 2});
  const std::vector<std::size_t> unsorted = {2, 1};
  const std::vector<std::size_t> out_of_range = {0, 4};
  EXPECT_THROW(gen.set_active(unsorted), std::invalid_argument);
  EXPECT_THROW(gen.set_active(out_of_range), std::invalid_argument);
  // A refused list changes nothing: all four workers still get a peer.
  const auto w = gen.generate(0);
  for (std::size_t v = 0; v < 4; ++v) EXPECT_NE(w.peer(v), v);
}

TEST(Generator, RejectsZeroWindow) {
  auto bw = net::random_uniform_bandwidth(4, 1);
  EXPECT_THROW(GossipGenerator(bw, {.t_thres = 0}), std::invalid_argument);
}

TEST(Assumption3, RandomMatchingHasRhoBelowOne) {
  RandomMatchSelector sel(8, 3);
  const double rho =
      estimate_rho([&](std::size_t t) { return sel.select(t); }, 8, 400);
  EXPECT_LT(rho, 1.0);
  EXPECT_GT(rho, 0.0);
}

TEST(Assumption3, AdaptiveSelectionHasRhoBelowOne) {
  auto bw = net::random_uniform_bandwidth(8, 11);
  GossipGenerator gen(bw, {.t_thres = 4, .seed = 6});
  const double rho =
      estimate_rho([&](std::size_t t) { return gen.generate(t); }, 8, 400);
  EXPECT_LT(rho, 1.0);
}

TEST(Lemma2, GossipOnlyConsensusContractsAtPredictedRate) {
  // Pure gossip (no gradients, no masking): the deviation from the mean must
  // contract like ρ^t in expectation; we check monotone decay to ~0.
  const std::size_t n = 16;
  RandomMatchSelector sel(n, 9);
  std::vector<std::vector<float>> models(n);
  Rng rng(4);
  for (auto& m : models) m = {static_cast<float>(rng.next_normal())};

  auto deviation = [&] {
    double mean = 0.0;
    for (const auto& m : models) mean += m[0];
    mean /= n;
    double d = 0.0;
    for (const auto& m : models) d += (m[0] - mean) * (m[0] - mean);
    return d;
  };

  const double initial = deviation();
  double prev = initial;
  for (std::size_t t = 0; t < 60; ++t) {
    GossipMatrix::apply(sel.select(t), models);
    const double cur = deviation();
    EXPECT_LE(cur, prev + 1e-9);  // averaging can never increase deviation
    prev = cur;
  }
  EXPECT_LT(prev, initial * 1e-3);
}

TEST(Fig1Environment, AdaptiveBeatsRingOn14Cities) {
  const auto bw = net::fig1_city_bandwidth();
  GossipGenerator gen(bw, {.t_thres = 10, .seed = 17});
  RingTopology ring(14);
  const double ring_bw = ring.bottleneck_bandwidth(bw);
  double adaptive = 0.0;
  const std::size_t rounds = 100;
  for (std::size_t t = 0; t < rounds; ++t) {
    adaptive += selected_bandwidth(gen.generate(t), bw).min;
  }
  EXPECT_GT(adaptive / rounds, ring_bw);
}

}  // namespace
}  // namespace saps::gossip
