// The SAPS-PSGD worker — Algorithm 2.
//
// Per round, a worker: runs local mini-batch SGD (line 5), decodes the
// coordinator's NotifyMsg to learn its peer and the shared mask seed
// (line 6), extracts its sparsified model x̃ = x ∘ m_t (line 7), exchanges it
// with the peer as an encoded MaskedModelMsg over the engine's fabric
// (lines 8–9) and merges per Eq. (7): the masked coordinates become the
// pairwise average, the rest keep the local value (line 10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/mask.hpp"
#include "core/reputation.hpp"
#include "net/wire.hpp"
#include "sim/engine.hpp"

namespace saps::core {

class SapsWorker {
 public:
  /// Throws std::invalid_argument when compression < 1.  The worker keeps
  /// no ratio: each round's mask, which the caller passes in, carries it.
  SapsWorker(sim::Engine& engine, std::size_t rank, double compression);

  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  /// Algorithm 2 line 5: one local mini-batch SGD step.  Returns the loss.
  double local_train(std::size_t epoch);

  /// Line 6: drains this worker's mailbox for the coordinator's NotifyMsg of
  /// `round` (skipping stale notifications queued while the worker was
  /// inactive) and stores the peer + mask seed.  Throws if the notification
  /// is missing.
  void begin_round(sim::Fabric& fabric, std::uint32_t round);

  /// The peer announced by the last begin_round (== rank when unmatched).
  [[nodiscard]] std::size_t peer() const noexcept { return peer_; }
  /// The shared mask seed announced by the last begin_round.
  [[nodiscard]] std::uint64_t mask_seed() const noexcept { return mask_seed_; }

  /// Lines 7–9 (send half): extracts the sparsified model under `mask` and
  /// ships it to the announced peer as an encoded MaskedModelMsg.
  void send_model(sim::Fabric& fabric, std::span<const std::uint8_t> mask);

  /// Lines 9–10 (receive half): receives the peer's MaskedModelMsg by the
  /// algos::receive_expected rule, checks it carries this round's mask seed,
  /// and applies the Eq. (7) merge.
  void receive_and_merge(sim::Fabric& fabric,
                         std::span<const std::uint8_t> mask);

  /// Lines 6–7: the sparsified model for this round's mask.
  [[nodiscard]] std::vector<float> sparsified_model(
      std::span<const std::uint8_t> mask) const;

  /// Line 10: merge the peer's sparsified model (Eq. (7) update).
  void merge_peer(std::span<const std::uint8_t> mask,
                  std::span<const float> peer_values);

  /// Attack-aware scoring: when set, receive_and_merge stages one anomaly
  /// observation of the peer (received masked values vs. this worker's own
  /// sparsified model) into the monitor's lane for this rank before
  /// merging.  The observation is read-only, so results are unchanged.
  void set_reputation(ReputationMonitor* monitor) noexcept {
    reputation_ = monitor;
  }

 private:
  sim::Engine* engine_;
  std::size_t rank_;
  std::size_t peer_ = 0;
  std::uint64_t mask_seed_ = 0;
  std::uint32_t round_ = 0;
  ReputationMonitor* reputation_ = nullptr;
};

}  // namespace saps::core
