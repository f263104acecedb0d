#include "core/reputation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace saps::core {

// Score at or above which a peer is `suspected()` (and excluded from
// reputation-strategy matching).  Honest per-observation anomalies sit well
// below 1; a sign-flip alone scores ~2, a coordinated 10x-RMS noise
// direction ~2.7 — both flag on their first cleanly-referenced observation.
constexpr double kFlagThreshold = 2.0;

double anomaly_score(std::span<const float> received,
                     std::span<const float> reference) {
  if (received.empty() || reference.empty() ||
      received.size() != reference.size()) {
    return 0.0;
  }
  double rr = 0.0;
  double ff = 0.0;
  double rf = 0.0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    const double r = received[i];
    const double f = reference[i];
    rr += r * r;
    ff += f * f;
    rf += r * f;
  }
  if (rr == 0.0 || ff == 0.0) return 0.0;
  const double norm_dev = std::abs(0.5 * (std::log(rr) - std::log(ff)));
  const double cosine = rf / std::sqrt(rr * ff);
  return norm_dev + (1.0 - cosine);
}

ReputationMonitor::ReputationMonitor(std::size_t workers,
                                     ReputationConfig config)
    : config_(config), staged_(workers + 1), score_(workers, 0.0) {
  if (config_.decay < 0.0 || config_.decay >= 1.0) {
    throw std::invalid_argument("ReputationMonitor: decay out of [0, 1)");
  }
}

void ReputationMonitor::observe(std::size_t observer, std::size_t peer,
                                std::span<const float> received,
                                std::span<const float> reference) {
  if (observer >= staged_.size()) {
    throw std::out_of_range("ReputationMonitor::observe: observer");
  }
  if (peer >= score_.size()) {
    throw std::out_of_range("ReputationMonitor::observe: peer");
  }
  staged_[observer].push_back({peer, anomaly_score(received, reference)});
}

void ReputationMonitor::end_round() {
  // Fixed fold order — ascending observer, staging order within a lane —
  // makes the float accumulation independent of which thread staged what.
  // Gathering in that order and sorting by (peer, position) groups each
  // peer's observations without reordering them.
  folded_.clear();
  for (auto& lane : staged_) {
    for (const auto& obs : lane) {
      folded_.push_back({obs.peer, folded_.size(), obs.anomaly});
    }
    lane.clear();
  }
  std::sort(folded_.begin(), folded_.end());
  // Observation-gated EMA: only peers somebody heard from this round move.
  for (auto it = folded_.begin(); it != folded_.end();) {
    const std::size_t peer = it->peer;
    double sum = 0.0;
    std::size_t count = 0;
    for (; it != folded_.end() && it->peer == peer; ++it, ++count) {
      sum += it->anomaly;
    }
    score_[peer] =
        config_.decay * score_[peer] + sum / static_cast<double>(count);
  }
}

double ReputationMonitor::score(std::size_t peer) const {
  if (peer >= score_.size()) {
    throw std::out_of_range("ReputationMonitor::score");
  }
  return score_[peer];
}

bool ReputationMonitor::suspected(std::size_t peer) const {
  return score(peer) >= kFlagThreshold;
}

double ReputationMonitor::trust(std::size_t peer) const {
  return 1.0 / (1.0 + score(peer));
}

std::vector<std::size_t> ReputationMonitor::suspects() const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < score_.size(); ++w) {
    if (score_[w] >= kFlagThreshold) out.push_back(w);
  }
  return out;
}

}  // namespace saps::core
