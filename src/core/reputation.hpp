// Attack-aware reputation scoring (docs/ARCHITECTURE.md, "Adaptive
// adversaries & attack-aware selection").
//
// A ReputationMonitor accumulates per-peer anomaly evidence from the
// updates a node receives: each observation compares a received float
// payload against the observer's own reference update via two cheap
// statistics — the log norm ratio and the cosine deviation.  Honest peers
// (same initialization, small local steps) score near zero; sign-flips,
// boosted substitutions, and coordinated noise score far above the flag
// threshold within a round or two.
//
// Determinism contract: observations are STAGED into per-observer lanes —
// observer slots are owned by disjoint parallel tasks (the same ownership
// discipline the fabric's per-source counters use), so staging needs no
// synchronization.  end_round() folds the staged lanes in ascending
// observer order (then staging order within a lane), decays first, and
// clears — one fixed-order reduction per round, bit-identical for any
// thread count and across reruns.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace saps::core {

struct ReputationConfig {
  // Multiplicative decay of a peer's accumulated evidence, applied only in
  // rounds the peer is OBSERVED (observation-gated EMA): the steady-state
  // score of a constant per-observation anomaly a is a / (1 - decay), and an
  // unobserved peer holds its score.  The gate matters under attack-aware
  // selection — a flagged attacker is excluded from matching, so nobody
  // observes it again, and plain per-round decay would quietly rehabilitate
  // it; the EMA keeps it frozen out instead.  In [0, 1).
  double decay = 0.9;
};

/// Anomaly of one received update against the observer's own reference:
/// |log(norm ratio)| + (1 - cosine), clamped to 0 for empty/zero inputs.
[[nodiscard]] double anomaly_score(std::span<const float> received,
                                   std::span<const float> reference);

class ReputationMonitor {
 public:
  /// Tracks `workers` scored peers; observers may be any id < workers + 1
  /// (the extra lane serves a parameter server).
  ReputationMonitor(std::size_t workers, ReputationConfig config = {});

  /// Stages one observation of `peer` made by `observer` this round.
  /// Safe to call concurrently from tasks owning distinct observers.
  void observe(std::size_t observer, std::size_t peer,
               std::span<const float> received,
               std::span<const float> reference);

  /// Folds all staged observations into the scores: each OBSERVED peer's
  /// score becomes decay * score + mean(staged anomalies), accumulated in
  /// fixed observer order; unobserved peers are untouched.  Call once per
  /// round, serially.
  void end_round();

  [[nodiscard]] double score(std::size_t peer) const;
  /// Every peer's score, by peer index.
  [[nodiscard]] const std::vector<double>& scores() const noexcept {
    return score_;
  }
  /// True when the peer's score is at or above the flag threshold (2.0).
  [[nodiscard]] bool suspected(std::size_t peer) const;
  /// Multiplicative selection weight in (0, 1]: 1 / (1 + score).
  [[nodiscard]] double trust(std::size_t peer) const;
  /// Ascending list of peers whose score meets the flag threshold.
  [[nodiscard]] std::vector<std::size_t> suspects() const;

 private:
  struct Staged {
    std::size_t peer;
    double anomaly;
  };

  ReputationConfig config_;
  std::vector<std::vector<Staged>> staged_;  // one lane per observer
  std::vector<double> score_;
};

}  // namespace saps::core
