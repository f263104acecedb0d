#include "core/coordinator.hpp"

#include <stdexcept>

#include "graph/matching.hpp"

namespace saps::core {

Coordinator::Coordinator(std::size_t workers,
                         const std::optional<net::BandwidthMatrix>& bandwidth,
                         CoordinatorConfig config)
    : workers_(workers),
      config_(config),
      bandwidth_(bandwidth),
      active_(workers, 1),
      active_count_(workers),
      seed_rng_(derive_seed(config.seed, 0xc002d)),
      trust_rng_(derive_seed(config.seed, 0x7e057)) {
  if (workers < 2) throw std::invalid_argument("Coordinator: workers < 2");
  const bool adaptive =
      (config_.strategy == SelectionStrategy::kAdaptiveBandwidth ||
       config_.strategy == SelectionStrategy::kAdaptiveReputation) &&
      bandwidth_.has_value();
  if (adaptive) {
    gossip::GeneratorConfig gen;
    gen.bandwidth_threshold = config_.bandwidth_threshold;
    gen.t_thres = config_.t_thres;
    gen.seed = config_.seed;
    generator_.emplace(*bandwidth_, gen);
  } else if (config_.strategy != SelectionStrategy::kAdaptiveReputation) {
    random_.emplace(workers, config_.seed);
  }
}

void Coordinator::refresh_trust() {
  if (config_.strategy != SelectionStrategy::kAdaptiveReputation) return;
  if (!trust_provider_) {
    throw std::logic_error(
        "Coordinator: kAdaptiveReputation needs a trust provider");
  }
  if (generator_) {
    for (std::size_t w = 0; w < workers_; ++w) {
      generator_->set_trust(w, trust_provider_(w));
    }
  }
}

gossip::GossipMatrix Coordinator::reputation_match() {
  // No bandwidth objective to preserve: a jittered trust-weighted greedy
  // matching on the complete active graph.  Trust defaults keep honest
  // peers uniformly weighted (the jitter supplies the mixing randomness);
  // suspects (trust 0) are isolated.  Greedy on a complete graph is
  // maximal, so no leftover-completion pass is needed.
  const std::size_t n = workers_;
  std::vector<double> trust(n, 1.0);
  for (std::size_t w = 0; w < n; ++w) trust[w] = trust_provider_(w);
  graph::AdjMatrix e(n);
  std::vector<double> weight(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // The jitter is drawn for every active edge regardless of trust, so
      // the stream does not shift as suspicions change round to round.
      if (!active_[i] || !active_[j]) continue;
      const double jitter = trust_rng_.uniform(0.7, 1.3);
      if (trust[i] <= 0.0 || trust[j] <= 0.0) continue;
      e.set(i, j);
      const double w = trust[i] * trust[j] * jitter;
      weight[i * n + j] = w;
      weight[j * n + i] = w;
    }
  }
  return gossip::GossipMatrix(graph::greedy_weight_matching(e, weight));
}

RoundPlan Coordinator::begin_round() {
  RoundPlan plan;
  plan.round = round_++;
  plan.mask_seed = seed_rng_();
  refresh_trust();
  if (generator_) {
    plan.gossip = generator_->generate(plan.round);
  } else if (config_.strategy == SelectionStrategy::kAdaptiveReputation) {
    plan.gossip = reputation_match();
  } else {
    // Random matching over active workers only.  The liveness check is the
    // incrementally maintained count, not a scan: population-scale runs
    // call begin_round every round with workers_ in the tens of thousands,
    // and only the cohort-sized pair filter below may cost O(cohort).
    plan.gossip = random_->select(plan.round);
    if (active_count_ != workers_) {
      // Drop pairs touching inactive workers (they neither train nor talk).
      graph::Matching match;
      match.partner.assign(workers_, graph::Matching::kUnmatched);
      for (const auto& [i, j] : plan.gossip.pairs()) {
        if (active_[i] && active_[j]) {
          match.partner[i] = j;
          match.partner[j] = i;
        }
      }
      plan.gossip = gossip::GossipMatrix(match);
    }
  }
  return plan;
}

void Coordinator::worker_done(std::size_t worker) {
  if (worker >= workers_) throw std::out_of_range("Coordinator::worker_done");
}

void Coordinator::set_active(std::size_t worker, bool active) {
  if (worker >= workers_) throw std::out_of_range("Coordinator::set_active");
  const std::uint8_t next = active ? 1 : 0;
  if (active_[worker] != next) {
    if (active) {
      ++active_count_;
    } else {
      --active_count_;
    }
    active_[worker] = next;
  }
  if (generator_) generator_->set_active(worker, active);
}

bool Coordinator::active(std::size_t worker) const {
  if (worker >= workers_) throw std::out_of_range("Coordinator::active");
  return active_[worker] != 0;
}

double Coordinator::bottleneck_bandwidth(const gossip::GossipMatrix& w) const {
  return bandwidth_ ? gossip::selected_bandwidth(w, *bandwidth_).min : 0.0;
}

}  // namespace saps::core
