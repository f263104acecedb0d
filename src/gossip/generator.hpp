// Algorithm 3: GenerateGossipMatrix — adaptive peer selection.
//
// The coordinator keeps:
//  - B:  the (min-symmetrized) bandwidth matrix;
//  - B*: edges with B_ij >= B_thres (Algorithm 1 GETNEWCONNECTEDGRAPH);
//  - R:  a timestamp matrix, R_ij = last round when (i,j) was matched;
//  - T_thres: the "recently connected" (RC) window.
//
// Per round t:
//  1. If the RC edges {(i,j) : R_ij > t − T_thres} form a connected graph,
//     match on the high-bandwidth graph B* (bandwidth-greedy phase).
//  2. Otherwise, take the connected sub-graphs of the RC edges and match on
//     the edges BETWEEN different sub-graphs (GETOVERTIMEMATRIX), forcing
//     information to flow across components (connectivity-repair phase).
//  3. If the maximum matching leaves workers unmatched, match the leftovers
//     on the unrestricted graph (GETUNMATCH) so everyone gets a peer when
//     possible.
//  4. The union of matched edges is written back into R.
//
// This keeps every possible-communication edge set connected over any
// T_thres window, which is what Assumption 3 (second-largest eigenvalue of
// E[WᵀW] < 1) needs — property-tested in tests/gossip_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gossip/gossip_matrix.hpp"
#include "graph/graph.hpp"
#include "net/bandwidth.hpp"
#include "util/rng.hpp"

namespace saps::gossip {

struct GeneratorConfig {
  double bandwidth_threshold = 0.0;  // B_thres, MB/s; 0 = auto (median)
  std::size_t t_thres = 10;          // RC window, rounds
  std::uint64_t seed = 1;            // randomizes RandomlyMaxMatch
};

class GossipGenerator {
 public:
  GossipGenerator(const net::BandwidthMatrix& bandwidth,
                  GeneratorConfig config);

  /// Generates W_t for round t over the currently-active workers.
  /// Rounds must be generated in non-decreasing t order.
  [[nodiscard]] GossipMatrix generate(std::size_t t);

  /// The workers that may be matched from now on (a new generator has
  /// every worker active); the rest left training — the dynamics the paper
  /// motivates (federated workers join/leave freely).  Throws
  /// std::invalid_argument, before anything changes, unless the ranks are
  /// strictly ascending and below the population.
  void set_active(std::span<const std::size_t> active);

  /// Attack-aware down-weighting (SelectionStrategy::kAdaptiveReputation):
  /// the matching weight of edge (i, j) becomes B_ij * jitter * trust_i *
  /// trust_j, preserving the bandwidth objective among trusted peers, and a
  /// trust of exactly 0 excludes the worker from every candidate edge set.
  /// The default trust of 1.0 leaves the matching bit-identical to the
  /// trust-free generator.
  void set_trust(std::size_t worker, double trust);

  [[nodiscard]] double bandwidth_threshold() const noexcept { return b_thres_; }
  [[nodiscard]] const graph::AdjMatrix& filtered_graph() const noexcept {
    return b_star_;
  }

 private:
  /// RandomlyMaxMatch with bandwidth preference: greedy maximum-weight
  /// matching on jittered link speeds (weight × U(0.7, 1.3)).  The jitter
  /// keeps the matching distribution random (needed for Assumption 3's
  /// E[WᵀW] to mix), while the weight bias realizes the paper's goal of
  /// "maximizing the network resource utilization" within the candidate
  /// edge set.  Greedy yields a maximal matching; the unmatched-leftover
  /// phase of generate() completes it.
  [[nodiscard]] graph::Matching weight_biased_match(const graph::AdjMatrix& e);

  [[nodiscard]] graph::AdjMatrix rc_graph(std::size_t t) const;
  [[nodiscard]] graph::AdjMatrix cross_component_graph(
      const graph::AdjMatrix& rc) const;
  [[nodiscard]] graph::AdjMatrix unmatched_graph(
      const graph::Matching& match) const;
  void mask_inactive(graph::AdjMatrix& g) const;
  void mask_distrusted(graph::AdjMatrix& g) const;

  const net::BandwidthMatrix* bandwidth_;
  double b_thres_;
  std::size_t t_thres_;
  Rng rng_;
  graph::AdjMatrix b_star_;              // threshold-filtered bandwidth graph
  std::vector<std::int64_t> last_used_;  // R, flattened; -1 = never
  std::vector<std::uint8_t> active_;     // flags of the active list
  std::size_t active_count_;             // the active list's size
  std::vector<double> trust_;            // 1.0 = neutral, 0.0 = excluded
};

/// Throws std::invalid_argument naming `what` unless `active` is strictly
/// ascending and every rank in it is below `workers`.
void check_active_list(std::span<const std::size_t> active,
                       std::size_t workers, const char* what);

/// Median of the positive off-diagonal bandwidths — the auto B_thres.
[[nodiscard]] double median_bandwidth(const net::BandwidthMatrix& bandwidth);

}  // namespace saps::gossip
