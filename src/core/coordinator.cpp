#include "core/coordinator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/matching.hpp"

namespace saps::core {

Coordinator::Coordinator(std::size_t workers,
                         const std::optional<net::BandwidthMatrix>& bandwidth,
                         CoordinatorConfig config)
    : workers_(workers),
      config_(config),
      bandwidth_(bandwidth),
      active_(workers),
      seed_rng_(derive_seed(config.seed, 0xc002d)),
      trust_rng_(derive_seed(config.seed, 0x7e057)) {
  if (workers < 2) throw std::invalid_argument("Coordinator: workers < 2");
  std::iota(active_.begin(), active_.end(), std::size_t{0});
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
  // The generator never matches an inactive worker, so only the live
  // workers' trust can reach its weights.
  if (generator_) {
    for (const auto w : active_) generator_->set_trust(w, trust_provider_(w));
  }
}

gossip::GossipMatrix Coordinator::reputation_match() {
  // No bandwidth objective to preserve: a jittered trust-weighted greedy
  // matching on the complete graph of the active list.  Trust defaults keep
  // honest peers uniformly weighted (the jitter supplies the mixing
  // randomness); suspects (trust 0) are isolated.  Greedy on a complete
  // graph is maximal, so no leftover-completion pass is needed.  Vertex a
  // is worker active_[a]; the list ascends, so the pairs come in the same
  // lexicographic order as the workers' ranks.
  const std::size_t m = active_.size();
  if (m < 2) return gossip::GossipMatrix(workers_);
  std::vector<double> trust(m);
  for (std::size_t a = 0; a < m; ++a) trust[a] = trust_provider_(active_[a]);
  graph::AdjMatrix e(m);
  std::vector<double> weight(m * m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      // The jitter is drawn for every active edge regardless of trust, so
      // the stream does not shift as suspicions change round to round.
      const double jitter = trust_rng_.uniform(0.7, 1.3);
      if (trust[a] <= 0.0 || trust[b] <= 0.0) continue;
      e.set(a, b);
      const double w = trust[a] * trust[b] * jitter;
      weight[a * m + b] = w;
      weight[b * m + a] = w;
    }
  }
  const graph::Matching local = graph::greedy_weight_matching(e, weight);
  graph::Matching match;
  match.partner.assign(workers_, graph::Matching::kUnmatched);
  for (std::size_t a = 0; a < m; ++a) {
    if (local.partner[a] != graph::Matching::kUnmatched) {
      match.partner[active_[a]] = active_[local.partner[a]];
    }
  }
  return gossip::GossipMatrix(match);
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
    // A random matching of the whole population, less every pair with an
    // inactive member (they neither train nor talk).  Known cost, open in
    // ROADMAP.md: both the shuffle and the filter below walk the
    // population, not the active list.
    plan.gossip = random_->select(plan.round);
    if (active_.size() != workers_) {
      graph::Matching match;
      match.partner.assign(workers_, graph::Matching::kUnmatched);
      for (const auto& [i, j] : plan.gossip.pairs()) {
        if (active(i) && active(j)) {
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

void Coordinator::set_active(std::span<const std::size_t> active) {
  gossip::check_active_list(active, workers_, "Coordinator::set_active");
  if (generator_) generator_->set_active(active);
  active_.assign(active.begin(), active.end());
}

bool Coordinator::active(std::size_t worker) const {
  if (worker >= workers_) throw std::out_of_range("Coordinator::active");
  return std::binary_search(active_.begin(), active_.end(), worker);
}

double Coordinator::bottleneck_bandwidth(const gossip::GossipMatrix& w) const {
  return bandwidth_ ? gossip::selected_bandwidth(w, *bandwidth_).min : 0.0;
}

}  // namespace saps::core
