// Fault-injecting wrapper over the message plane.
//
// FaultyFabric subclasses sim::Fabric and overrides the single data-plane
// choke point (post) to drop, duplicate, delay, partition, or adversarially
// rewrite frames per a declarative FaultSpec.  Everything it does is a pure
// function of (fault_seed, fabric round, source, per-source send counter,
// destination): each posted frame derives its own RNG, so decisions are
// independent of thread count and of the interleaving of other sources'
// sends — the same determinism contract the rest of the simulator pins
// (tests/fault_injection_test.cpp).
//
// Accounting semantics (tests/fault_injection_test.cpp pins the ledger):
//  - dropped frames ARE charged (the sender spent the bandwidth) but never
//    reach the destination mailbox;
//  - duplicated frames are charged AND delivered twice (a retransmission);
//  - delayed frames add delay_seconds of in-flight time to their transfer
//    completion without changing bytes;
//  - partitioned frames behave like drops while the partition window is
//    open;
//  - byzantine transforms are size-preserving, so the charge of a rewritten
//    frame equals the honest frame's charge; silent stragglers send nothing
//    and are charged nothing.
//
// Adaptive adversaries (docs/ARCHITECTURE.md, "Adaptive adversaries &
// attack-aware selection"): model-replacement boosts the negated update by
// the engine-provided aggregation fan-in; collusion events share one
// per-round direction stream and fire only when >= collude_min group
// members are live (the liveness snapshot is taken serially at
// begin_round); adapt_attack attenuates every transform to a relative L2
// budget.  clip_norm is the matching receiver-side defense: it rescales
// any delivered float payload to the clip, honest or not, after the
// adversarial rewrite — also size-preserving.
//
// The control plane (send_control) bypasses post by design: coordinator
// control traffic models a reliable side channel and is never faulted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/fabric.hpp"
#include "sim/faults.hpp"

namespace saps::sim {

class FaultyFabric final : public Fabric {
 public:
  FaultyFabric(net::LinkModel link, FaultSpec spec);

  /// A zero-knob wrapper (force_wrapper with nothing enabled) is
  /// transparent: algorithms keep their strict receive validation and the
  /// run is bit-identical to the plain fabric.
  [[nodiscard]] bool transparent() const noexcept override {
    return !spec_.enabled();
  }

  void begin_round() override;

  /// Injection counters, for tests; aggregated over sources.
  struct Tally {
    std::size_t dropped = 0;
    std::size_t duplicated = 0;
    std::size_t delayed = 0;
    std::size_t transformed = 0;
    std::size_t silenced = 0;
    std::size_t partitioned = 0;
    std::size_t clipped = 0;
  };
  [[nodiscard]] Tally tally() const;

  /// Estimated aggregation fan-in m for kModelReplacement boosting
  /// (v -> (1 - 2m) v).  The engine sets this to the cohort size right
  /// after fabric construction (serial); defaults to nodes() - 1.
  void set_aggregation_fanin(std::size_t fanin) noexcept {
    fanin_estimate_ = fanin;
  }

  /// Installs the colluder-liveness probe: returns how many members of
  /// spec.collude_group are live (resident AND active) this round.  Called
  /// once per begin_round (serial), never from parallel sends, so the
  /// per-frame decision stays a pure per-round function.  Without a probe
  /// all colluders count as live.
  void set_colluder_liveness_probe(std::function<std::size_t()> probe) {
    colluder_liveness_ = std::move(probe);
  }

 protected:
  void post(std::size_t src, std::size_t dst, double charged,
            std::vector<std::uint8_t> payload) override;

 private:
  /// Active byzantine event of `src` in `round`, or nullptr when honest.
  [[nodiscard]] const ByzantineEvent* byzantine_event(std::size_t src,
                                                      std::size_t round) const;
  /// True when src and dst sit in different groups of a partition open in
  /// `round`.
  [[nodiscard]] bool partition_cut(std::size_t src, std::size_t dst,
                                   std::size_t round) const;

  FaultSpec spec_;
  std::size_t fanin_estimate_ = 0;
  std::function<std::size_t()> colluder_liveness_;
  // Snapshot of the colluder-liveness count, taken serially in
  // begin_round() so parallel post() calls read a fixed per-round value.
  std::size_t colluders_live_ = 0;
  // Per-source send counters and tallies: sources are owned by disjoint
  // parallel tasks (the fabric's concurrency contract), so per-source slots
  // need no synchronization.  A counter holds the round it counts, so
  // begin_round() resets none of them.
  struct SendCount {
    std::size_t round = 0;
    std::uint64_t count = 0;
  };
  std::vector<SendCount> sends_;
  std::vector<Tally> tallies_;
  // partition_group_[event][node] = group index, or kNoGroup when the node
  // is not named by that event (keeps full connectivity).
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;
  std::vector<std::vector<std::uint32_t>> partition_group_;
};

}  // namespace saps::sim
