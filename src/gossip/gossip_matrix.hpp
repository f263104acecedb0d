// The gossip matrix W_t of SAPS-PSGD (Section II-C).
//
// W_t is induced by a matching: for a matched pair (i, j),
// W[i][i] = W[j][j] = W[i][j] = W[j][i] = 1/2; an unmatched worker keeps its
// model, W[i][i] = 1.  (The paper's GENERATEW pseudo-code sets only the
// diagonal to 1/2, which is not row-stochastic for unmatched workers; the
// intended matrix — "doubly stochastic", as the text asserts — is the one
// implemented here.)
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/matching.hpp"

namespace saps::gossip {

class GossipMatrix {
 public:
  /// Identity gossip (every worker keeps its model).
  explicit GossipMatrix(std::size_t n);

  /// From a matching over n workers.  Throws if the matching is malformed.
  explicit GossipMatrix(const graph::Matching& matching);

  [[nodiscard]] std::size_t size() const noexcept { return peer_.size(); }

  /// Peer of worker v this round, or v itself if unmatched (self-loop).
  [[nodiscard]] std::size_t peer(std::size_t v) const;

  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> pairs() const;

  /// Dense row-major matrix (for spectral analysis and tests).
  [[nodiscard]] std::vector<double> dense() const;

  /// Checks double stochasticity and symmetry (always true by construction;
  /// exposed for property tests).
  [[nodiscard]] bool is_doubly_stochastic(double tol = 1e-12) const;

  /// Applies X ← X·W_t to a set of column vectors stored as rows:
  /// models[i] is worker i's vector; matched pairs are averaged.
  static void apply(const GossipMatrix& w,
                    std::vector<std::vector<float>>& models);

 private:
  std::vector<std::size_t> peer_;
};

/// ρ = λ₂(E[WᵀW]) of Assumption 3, estimated by Monte-Carlo over the n-worker
/// matrices draw(0), …, draw(samples − 1).  O(samples · n³).
[[nodiscard]] double estimate_rho(
    const std::function<GossipMatrix(std::size_t)>& draw, std::size_t n,
    std::size_t samples);

}  // namespace saps::gossip
