// SAPS-PSGD — the paper's algorithm, orchestrating Coordinator (Algorithm 1)
// and SapsWorkers (Algorithm 2) over the simulation engine.
//
// Update rule (Eq. 7):  X_{t+1} = X_t ∘ ¬M_t + (X_t ∘ M_t) W_t − γ G(X_t; ξ_t)
// realized as: local SGD step, then pairwise averaging of the masked
// coordinates with the matched peer.
//
// SAPS supplies only its round step to algos::run_rounds, with the
// synchronous Schedule: a cohort run draws the cohort of round index and
// keeps everything.  The step first hands the coordinator the driver's
// active list (resident and active, ascending), so a Dynamics::on_round hook
// flips only the engine and the match never names a worker without a live
// replica.  Each round the coordinator notifies every roster worker and
// every active worker answers with ROUND_END, all on the fabric's control
// plane.
#pragma once

#include "algos/algorithm.hpp"
#include "core/coordinator.hpp"
#include "core/reputation.hpp"
#include "core/worker.hpp"

namespace saps::core {

struct SapsConfig {
  double compression = 100.0;  // c (paper: 100)
  // kAdaptiveReputation needs Dynamics::reputation_decay > 0: the monitor's
  // trust then feeds the matching.
  SelectionStrategy strategy = SelectionStrategy::kAdaptiveBandwidth;
  double bandwidth_threshold = 0.0;  // B_thres; 0 = median auto
  std::size_t t_thres = 10;          // T_thres RC window
};

class SapsPsgd final : public algos::Algorithm {
 public:
  explicit SapsPsgd(SapsConfig config = {}, algos::Dynamics dynamics = {});

  [[nodiscard]] const char* name() const noexcept override {
    switch (config_.strategy) {
      case SelectionStrategy::kRandomMatch:
        return "SAPS-PSGD(random)";
      case SelectionStrategy::kAdaptiveReputation:
        return "SAPS-PSGD(reputation)";
      default:
        return "SAPS-PSGD";
    }
  }
  /// The result also carries each round's selected_bandwidth when the
  /// engine has a bandwidth matrix, and the reputation scores and suspects
  /// when Dynamics::reputation_decay > 0 (workers observe their matched
  /// peer's masked update).
  sim::RunResult run(sim::Engine& engine) const override;

 private:
  SapsConfig config_;
  algos::Dynamics dyn_;
};

}  // namespace saps::core
