#include "gossip/generator.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace saps::gossip {

double median_bandwidth(const net::BandwidthMatrix& bandwidth) {
  std::vector<double> speeds;
  const std::size_t n = bandwidth.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = bandwidth.get(i, j);
      if (v > 0.0) speeds.push_back(v);
    }
  }
  if (speeds.empty()) {
    throw std::invalid_argument("median_bandwidth: no positive links");
  }
  std::sort(speeds.begin(), speeds.end());
  return speeds[speeds.size() / 2];
}

GossipGenerator::GossipGenerator(const net::BandwidthMatrix& bandwidth,
                                 GeneratorConfig config)
    : bandwidth_(&bandwidth),
      b_thres_(config.bandwidth_threshold > 0.0 ? config.bandwidth_threshold
                                                : median_bandwidth(bandwidth)),
      t_thres_(config.t_thres),
      rng_(derive_seed(config.seed, 0x905517)),
      b_star_(bandwidth.size()),
      last_used_(bandwidth.size() * bandwidth.size(), -1),
      active_(bandwidth.size(), 1),
      active_count_(bandwidth.size()),
      trust_(bandwidth.size(), 1.0) {
  if (t_thres_ == 0) throw std::invalid_argument("GossipGenerator: T_thres==0");
  const std::size_t n = bandwidth.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (bandwidth.get(i, j) >= b_thres_) b_star_.set(i, j);
    }
  }
}

void check_active_list(std::span<const std::size_t> active,
                       std::size_t workers, const char* what) {
  if (std::adjacent_find(active.begin(), active.end(),
                         std::greater_equal<>()) != active.end() ||
      (!active.empty() && active.back() >= workers)) {
    throw std::invalid_argument(std::string(what) +
                                ": the active list must be strictly "
                                "ascending ranks below " +
                                std::to_string(workers));
  }
}

void GossipGenerator::set_active(std::span<const std::size_t> active) {
  check_active_list(active, active_.size(), "GossipGenerator::set_active");
  std::fill(active_.begin(), active_.end(), 0);
  for (const auto w : active) active_[w] = 1;
  active_count_ = active.size();
}

void GossipGenerator::set_trust(std::size_t worker, double trust) {
  if (worker >= trust_.size()) {
    throw std::out_of_range("GossipGenerator::set_trust");
  }
  if (trust < 0.0 || trust > 1.0) {
    throw std::invalid_argument("GossipGenerator::set_trust: out of [0, 1]");
  }
  trust_[worker] = trust;
}

graph::Matching GossipGenerator::weight_biased_match(
    const graph::AdjMatrix& e) {
  const std::size_t n = e.size();
  std::vector<double> weight(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!e.get(i, j)) continue;
      // Trust defaults to 1.0, so the trust-free weights are bit-identical.
      const double w =
          bandwidth_->get(i, j) * rng_.uniform(0.7, 1.3) * trust_[i] * trust_[j];
      weight[i * n + j] = w;
      weight[j * n + i] = w;
    }
  }
  return graph::greedy_weight_matching(e, weight);
}

graph::AdjMatrix GossipGenerator::rc_graph(std::size_t t) const {
  const std::size_t n = bandwidth_->size();
  graph::AdjMatrix rc(n);
  const auto horizon =
      static_cast<std::int64_t>(t) - static_cast<std::int64_t>(t_thres_);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (last_used_[i * n + j] > horizon) rc.set(i, j);
    }
  }
  return rc;
}

graph::AdjMatrix GossipGenerator::cross_component_graph(
    const graph::AdjMatrix& rc) const {
  // GETOVERTIMEMATRIX: edges connecting different RC components (and having
  // a usable link, i.e. positive bandwidth between active workers).
  const std::size_t n = rc.size();
  const auto comps = graph::connected_components(rc);
  std::vector<std::size_t> comp_of(n, 0);
  for (std::size_t k = 0; k < comps.size(); ++k) {
    for (const auto v : comps[k]) comp_of[v] = k;
  }
  graph::AdjMatrix e(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (comp_of[i] != comp_of[j] && bandwidth_->get(i, j) > 0.0) e.set(i, j);
    }
  }
  return e;
}

graph::AdjMatrix GossipGenerator::unmatched_graph(
    const graph::Matching& match) const {
  // GETUNMATCH: complete (positive-bandwidth) graph over unmatched workers.
  const std::size_t n = bandwidth_->size();
  graph::AdjMatrix e(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (match.partner[i] != graph::Matching::kUnmatched) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (match.partner[j] == graph::Matching::kUnmatched &&
          bandwidth_->get(i, j) > 0.0) {
        e.set(i, j);
      }
    }
  }
  return e;
}

void GossipGenerator::mask_inactive(graph::AdjMatrix& g) const {
  const std::size_t n = g.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (active_[v]) continue;
    for (std::size_t u = 0; u < n; ++u) {
      if (u != v) g.set(v, u, false);
    }
  }
}

void GossipGenerator::mask_distrusted(graph::AdjMatrix& g) const {
  // Suspected peers (trust exactly 0) are isolated: no candidate edge may
  // touch them, in neither the weighted phase nor the leftover completion.
  const std::size_t n = g.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (trust_[v] > 0.0) continue;
    for (std::size_t u = 0; u < n; ++u) {
      if (u != v) g.set(v, u, false);
    }
  }
}

GossipMatrix GossipGenerator::generate(std::size_t t) {
  const std::size_t n = bandwidth_->size();

  // Line 1: are the recently-connected edges still a connected graph
  // (over the active workers)?
  auto rc = rc_graph(t);
  mask_inactive(rc);
  // Connected means at most one RC component holds an active worker.
  bool rc_connected = true;
  {
    const auto comps = graph::connected_components(rc);
    std::size_t active_components = 0;
    for (const auto& comp : comps) {
      bool has_active = false;
      for (const auto v : comp) {
        if (active_[v]) has_active = true;
      }
      if (has_active) ++active_components;
    }
    rc_connected = active_components <= 1;
  }

  // Lines 2-4: pick the candidate edge set E.
  graph::AdjMatrix e = rc_connected ? b_star_ : cross_component_graph(rc);
  mask_inactive(e);
  mask_distrusted(e);

  // Line 5: RandomlyMaxMatch on E (bandwidth-biased, see weight_biased_match).
  graph::Matching match = weight_biased_match(e);

  // Lines 6-9: second pass over unmatched workers.  The paper matches the
  // leftovers "without considering bandwidth"; blossom maximum matching with
  // randomized order guarantees everyone pairable gets a peer.
  std::size_t matched = 0;
  for (const auto p : match.partner) {
    if (p != graph::Matching::kUnmatched) ++matched;
  }
  if (matched < active_count_ - (active_count_ % 2)) {
    auto leftover = unmatched_graph(match);
    mask_inactive(leftover);
    mask_distrusted(leftover);
    const graph::Matching extra = graph::randomly_max_matching(leftover, rng_);
    for (std::size_t v = 0; v < n; ++v) {
      if (extra.partner[v] != graph::Matching::kUnmatched) {
        match.partner[v] = extra.partner[v];
      }
    }
  }

  // Record matched edges in the timestamp matrix R.
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t u = match.partner[v];
    if (u != graph::Matching::kUnmatched && u > v) {
      last_used_[v * n + u] = static_cast<std::int64_t>(t);
      last_used_[u * n + v] = static_cast<std::int64_t>(t);
    }
  }

  return GossipMatrix(match);
}

}  // namespace saps::gossip
