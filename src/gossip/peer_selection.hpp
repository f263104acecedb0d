// Peer-selection strategies compared in Fig. 5, beside the paper's
// bandwidth-aware Algorithm 3 (GossipGenerator):
//  - RandomMatchSelector: "RandomChoose" — a uniformly random maximum
//    matching on the complete graph every round;
//  - RingTopology: the D-PSGD / DCD-PSGD ring 1→2→…→n→1.  A ring is a
//    degree-2 topology, not a matching, so it exposes neighbors rather
//    than a GossipMatrix.
// selected_bandwidth is the figure's metric for a matching, whichever
// strategy drew it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gossip/gossip_matrix.hpp"
#include "net/bandwidth.hpp"
#include "util/rng.hpp"

namespace saps::gossip {

/// Uniformly random perfect matching over all workers (RandomChoose in
/// Fig. 5): shuffle and pair consecutive workers.
class RandomMatchSelector {
 public:
  RandomMatchSelector(std::size_t workers, std::uint64_t seed);

  [[nodiscard]] GossipMatrix select(std::size_t round);

 private:
  std::size_t workers_;
  Rng rng_;
};

/// The fixed ring used by D-PSGD/DCD-PSGD in the paper's comparison.
struct RingTopology {
  explicit RingTopology(std::size_t workers);

  [[nodiscard]] std::size_t left(std::size_t v) const noexcept {
    return (v + workers - 1) % workers;
  }
  [[nodiscard]] std::size_t right(std::size_t v) const noexcept {
    return (v + 1) % workers;
  }

  /// Bottleneck (minimum) bandwidth over all ring edges (Fig. 5 metric).
  [[nodiscard]] double bottleneck_bandwidth(
      const net::BandwidthMatrix& bandwidth) const;

  std::size_t workers;
};

/// Bandwidth of the links a matching selects (Fig. 5 metric).
struct SelectedBandwidth {
  double min = 0.0;   // the bottleneck a synchronous round waits on
  double mean = 0.0;  // how good the chosen peers are on average
};

/// The min and mean of `bandwidth` over `w.pairs()`, in that order; both 0
/// when `w` matches nobody.
[[nodiscard]] SelectedBandwidth selected_bandwidth(
    const GossipMatrix& w, const net::BandwidthMatrix& bandwidth);

}  // namespace saps::gossip
