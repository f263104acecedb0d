#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "graph/spectral.hpp"
#include "util/rng.hpp"

namespace saps::graph {
namespace {

TEST(AdjMatrix, BasicOps) {
  AdjMatrix g(4);
  g.set(0, 1);
  g.set(2, 3);
  EXPECT_TRUE(g.get(1, 0));  // symmetric
  EXPECT_FALSE(g.get(0, 2));
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  g.set(0, 0);  // self-loops ignored
  EXPECT_FALSE(g.get(0, 0));
  EXPECT_THROW((void)g.get(0, 9), std::out_of_range);
}

TEST(UnionFind, UnitesAndFinds) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
}

TEST(Connectivity, PathAndDisconnected) {
  AdjMatrix g(4);
  g.set(0, 1);
  g.set(1, 2);
  EXPECT_FALSE(is_connected(g));
  g.set(2, 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, SingleVertexIsConnected) {
  AdjMatrix g(1);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, Components) {
  AdjMatrix g(6);
  g.set(0, 1);
  g.set(2, 3);
  g.set(3, 4);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(comps[2], (std::vector<std::size_t>{5}));
}

// Brute-force maximum matching by edge-subset enumeration (small graphs).
std::size_t brute_force_max_matching(const AdjMatrix& g) {
  const auto edges = g.edges();
  const std::size_t m = edges.size();
  std::size_t best = 0;
  for (std::size_t mask = 0; mask < (1u << m); ++mask) {
    std::vector<bool> used(g.size(), false);
    std::size_t count = 0;
    bool ok = true;
    for (std::size_t e = 0; e < m && ok; ++e) {
      if (!(mask & (1u << e))) continue;
      const auto [a, b] = edges[e];
      if (used[a] || used[b]) {
        ok = false;
      } else {
        used[a] = used[b] = true;
        ++count;
      }
    }
    if (ok) best = std::max(best, count);
  }
  return best;
}

TEST(Blossom, PerfectMatchingOnCompleteEvenGraph) {
  for (const std::size_t n : {2u, 4u, 8u, 14u, 32u}) {
    AdjMatrix g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) g.set(i, j);
    }
    const auto m = max_matching(g);
    EXPECT_TRUE(m.valid_for(g));
    EXPECT_EQ(m.pair_count(), n / 2) << "n=" << n;
  }
}

TEST(Blossom, OddCycleMatchesFloorHalf) {
  // 5-cycle: max matching = 2 (requires blossom handling).
  AdjMatrix g(5);
  for (std::size_t i = 0; i < 5; ++i) g.set(i, (i + 1) % 5);
  const auto m = max_matching(g);
  EXPECT_TRUE(m.valid_for(g));
  EXPECT_EQ(m.pair_count(), 2u);
}

TEST(Blossom, PetersenLikeBlossomCase) {
  // Two triangles joined by a path — classic blossom contraction test.
  AdjMatrix g(8);
  g.set(0, 1);
  g.set(1, 2);
  g.set(2, 0);  // triangle A
  g.set(5, 6);
  g.set(6, 7);
  g.set(7, 5);  // triangle B
  g.set(2, 3);
  g.set(3, 4);
  g.set(4, 5);  // path joining them
  const auto m = max_matching(g);
  EXPECT_TRUE(m.valid_for(g));
  EXPECT_EQ(m.pair_count(), brute_force_max_matching(g));
}

TEST(Blossom, EmptyGraphHasNoMatch) {
  AdjMatrix g(4);
  const auto m = max_matching(g);
  EXPECT_EQ(m.pair_count(), 0u);
  for (const auto p : m.partner) EXPECT_EQ(p, Matching::kUnmatched);
}

class RandomGraphMatchingTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphMatchingTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 3 + rng.next_below(6);  // 3..8 vertices
    AdjMatrix g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.next_double() < 0.45) g.set(i, j);
      }
    }
    const auto m = max_matching(g);
    ASSERT_TRUE(m.valid_for(g));
    EXPECT_EQ(m.pair_count(), brute_force_max_matching(g));

    Rng rng2(GetParam() + 1000);
    const auto rm = randomly_max_matching(g, rng2);
    ASSERT_TRUE(rm.valid_for(g));
    EXPECT_EQ(rm.pair_count(), brute_force_max_matching(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphMatchingTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Blossom, RandomizedOrderFindsDifferentMatchings) {
  // On the complete graph all perfect matchings are maximum; randomization
  // should produce at least two distinct ones across seeds.
  AdjMatrix g(8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) g.set(i, j);
  }
  std::set<std::vector<std::size_t>> distinct;
  for (std::uint64_t s = 0; s < 8; ++s) {
    Rng rng(s);
    distinct.insert(randomly_max_matching(g, rng).partner);
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(GreedyWeightMatching, PrefersHeavyEdges) {
  AdjMatrix g(4);
  g.set(0, 1);
  g.set(2, 3);
  g.set(0, 2);
  std::vector<double> w(16, 0.0);
  w[0 * 4 + 1] = w[1 * 4 + 0] = 10.0;
  w[2 * 4 + 3] = w[3 * 4 + 2] = 9.0;
  w[0 * 4 + 2] = w[2 * 4 + 0] = 100.0;
  const auto m = greedy_weight_matching(g, w);
  EXPECT_TRUE(m.valid_for(g));
  EXPECT_EQ(m.partner[0], 2u);  // takes the 100 edge first
  EXPECT_EQ(m.partner[1], Matching::kUnmatched);
}

TEST(Spectral, KnownEigenvalues) {
  // [[2,1],[1,2]] → eigenvalues 3, 1.
  const auto eig = symmetric_eigenvalues({2, 1, 1, 2}, 2);
  EXPECT_NEAR(eig[0], 3.0, 1e-9);
  EXPECT_NEAR(eig[1], 1.0, 1e-9);
}

TEST(Spectral, DiagonalMatrix) {
  const auto eig = symmetric_eigenvalues({5, 0, 0, 0, -1, 0, 0, 0, 2}, 3);
  EXPECT_NEAR(eig[0], 5.0, 1e-9);
  EXPECT_NEAR(eig[1], 2.0, 1e-9);
  EXPECT_NEAR(eig[2], -1.0, 1e-9);
}

TEST(Spectral, RejectsAsymmetric) {
  EXPECT_THROW(symmetric_eigenvalues({1, 2, 3, 4}, 2), std::invalid_argument);
}

TEST(Spectral, DoublyStochasticHasUnitTopEigenvalue) {
  // Ring gossip matrix WᵀW for n=6: top eigenvalue 1, second < 1.
  const std::size_t n = 6;
  std::vector<double> w(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    w[i * n + i] = 1.0 / 3;
    w[i * n + (i + 1) % n] = 1.0 / 3;
    w[i * n + (i + n - 1) % n] = 1.0 / 3;
  }
  // WᵀW (symmetric).
  std::vector<double> wtw(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        wtw[i * n + j] += w[k * n + i] * w[k * n + j];
      }
    }
  }
  const auto eig = symmetric_eigenvalues(wtw, n);
  EXPECT_NEAR(eig[0], 1.0, 1e-9);
  EXPECT_LT(second_largest_eigenvalue(wtw, n), 1.0);
}

}  // namespace
}  // namespace saps::graph
