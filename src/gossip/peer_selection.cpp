#include "gossip/peer_selection.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace saps::gossip {

RandomMatchSelector::RandomMatchSelector(std::size_t workers,
                                         std::uint64_t seed)
    : workers_(workers), rng_(derive_seed(seed, 0x2a2d0)) {
  if (workers < 2) {
    throw std::invalid_argument("RandomMatchSelector: workers<2");
  }
}

GossipMatrix RandomMatchSelector::select(std::size_t /*round*/) {
  std::vector<std::size_t> order(workers_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = workers_; i > 1; --i) {
    std::swap(order[i - 1], order[rng_.next_below(i)]);
  }
  graph::Matching match;
  match.partner.assign(workers_, graph::Matching::kUnmatched);
  for (std::size_t k = 0; k + 1 < workers_; k += 2) {
    match.partner[order[k]] = order[k + 1];
    match.partner[order[k + 1]] = order[k];
  }
  return GossipMatrix(match);
}

RingTopology::RingTopology(std::size_t workers_in) : workers(workers_in) {
  if (workers < 3) throw std::invalid_argument("RingTopology: workers < 3");
}

double RingTopology::bottleneck_bandwidth(
    const net::BandwidthMatrix& bandwidth) const {
  if (bandwidth.size() != workers) {
    throw std::invalid_argument("RingTopology: bandwidth size mismatch");
  }
  double min_bw = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < workers; ++v) {
    min_bw = std::min(min_bw, bandwidth.get(v, right(v)));
  }
  return min_bw;
}

SelectedBandwidth selected_bandwidth(const GossipMatrix& w,
                                     const net::BandwidthMatrix& bandwidth) {
  const auto pairs = w.pairs();
  if (pairs.empty()) return {};
  double min_bw = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const auto& [i, j] : pairs) {
    const double bw = bandwidth.get(i, j);
    min_bw = std::min(min_bw, bw);
    sum += bw;
  }
  return {.min = min_bw, .mean = sum / static_cast<double>(pairs.size())};
}

}  // namespace saps::gossip
