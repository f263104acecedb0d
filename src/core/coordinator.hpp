// The SAPS-PSGD coordinator — Algorithm 1.
//
// A lightweight, BitTorrent-tracker-like central service.  It never touches
// model parameters or gradients: per round it (1) generates the gossip
// matrix W_t via adaptive peer selection, (2) draws the mask seed s that all
// workers use to regenerate the identical sparsification mask, (3) notifies
// workers, and (4) waits for their ROUND_END messages.  Only small control
// messages flow through it, and the fabric's control ledger counts them
// (sim::Fabric::control_bytes); the final full model is collected once at
// the end of training.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "gossip/generator.hpp"
#include "gossip/peer_selection.hpp"
#include "net/bandwidth.hpp"

namespace saps::core {

enum class SelectionStrategy {
  kAdaptiveBandwidth,   // the paper's Algorithm 3
  kRandomMatch,         // "RandomChoose" baseline of Fig. 5
  // Attack-aware selection: peers are down-weighted by the reputation
  // monitor's trust (suspects excluded outright).  With a bandwidth matrix
  // this rides Algorithm 3 — edge weights become B_ij * jitter * trust_i *
  // trust_j, preserving the bandwidth objective among trusted peers;
  // without one the coordinator runs a trust-weighted jittered matching on
  // the complete active graph.
  kAdaptiveReputation,
};

struct CoordinatorConfig {
  SelectionStrategy strategy = SelectionStrategy::kAdaptiveBandwidth;
  double bandwidth_threshold = 0.0;  // B_thres; 0 = median auto-threshold
  std::size_t t_thres = 10;          // RC-edge window
  std::uint64_t seed = 1;
};

/// One round's broadcast payload (W_t, t, s) of Algorithm 1, line 6.
struct RoundPlan {
  std::size_t round = 0;
  std::uint64_t mask_seed = 0;
  gossip::GossipMatrix gossip{1};
};

class Coordinator {
 public:
  /// Without a bandwidth matrix the coordinator falls back to random
  /// matching (there is nothing to adapt to), matching the paper's
  /// bandwidth-agnostic convergence experiments (Fig. 3/4).
  Coordinator(std::size_t workers,
              const std::optional<net::BandwidthMatrix>& bandwidth,
              CoordinatorConfig config);

  /// Generates the plan (W_t, t, s) for the next round.
  [[nodiscard]] RoundPlan begin_round();

  /// Takes a worker's ROUND_END (Algorithm 2, line 11); throws
  /// std::out_of_range on a rank outside the population.
  void worker_done(std::size_t worker);

  /// Federated dynamics: the round's live workers, as the round driver
  /// lists them (algos::Round::active).  Throws std::invalid_argument,
  /// before anything changes, unless the ranks are strictly ascending and
  /// below the population.  A new coordinator has every worker active.
  void set_active(std::span<const std::size_t> active);
  /// A binary search over the active list; throws std::out_of_range on a
  /// rank outside the population.
  [[nodiscard]] bool active(std::size_t worker) const;
  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_.size();
  }

  /// Installs the trust source for kAdaptiveReputation: returns a selection
  /// weight in [0, 1] per worker, where exactly 0 excludes the worker from
  /// matching this round.  Queried serially at begin_round.  Required when
  /// the strategy is kAdaptiveReputation.
  void set_trust_provider(std::function<double(std::size_t)> provider) {
    trust_provider_ = std::move(provider);
  }

  /// Bottleneck bandwidth of a round's matching (Fig. 5 metric); 0 when no
  /// bandwidth matrix is present.
  [[nodiscard]] double bottleneck_bandwidth(
      const gossip::GossipMatrix& w) const;

 private:
  /// Trust-weighted jittered matching over the complete graph of the active
  /// list — the reputation strategy's fallback when there is no bandwidth
  /// to adapt to.
  [[nodiscard]] gossip::GossipMatrix reputation_match();
  void refresh_trust();

  std::size_t workers_;
  CoordinatorConfig config_;
  std::optional<net::BandwidthMatrix> bandwidth_;
  std::optional<gossip::GossipGenerator> generator_;   // adaptive path
  std::optional<gossip::RandomMatchSelector> random_;  // random path
  std::function<double(std::size_t)> trust_provider_;
  std::vector<std::size_t> active_;  // live workers, ascending
  Rng seed_rng_;
  Rng trust_rng_;  // jitter stream of the no-bandwidth reputation matching
  std::size_t round_ = 0;
};

}  // namespace saps::core
