// SAPS-PSGD — the paper's algorithm, orchestrating Coordinator (Algorithm 1)
// and SapsWorkers (Algorithm 2) over the simulation engine.
//
// Update rule (Eq. 7):  X_{t+1} = X_t ∘ ¬M_t + (X_t ∘ M_t) W_t − γ G(X_t; ξ_t)
// realized as: local SGD step, then pairwise averaging of the masked
// coordinates with the matched peer.
//
// SAPS supplies only its round step to algos::run_rounds, with the
// synchronous Schedule: a cohort run draws the cohort of round index and
// keeps everything.  The step first mirrors the engine's liveness (resident
// and active) into the coordinator, so a Dynamics::on_round hook flips only
// the engine and the match never names a worker without a live replica.
#pragma once

#include <optional>

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
  sim::RunResult run(sim::Engine& engine) override;

  /// The last run's reputation monitor (workers observe their matched
  /// peer's masked update; detection metrics), or nullptr when
  /// Dynamics::reputation_decay was 0.
  [[nodiscard]] const ReputationMonitor* reputation() const noexcept {
    return reputation_ ? &*reputation_ : nullptr;
  }

  /// Per-round bottleneck bandwidth of the selections made during the last
  /// run (Fig. 5 series); empty if the engine had no bandwidth matrix.
  [[nodiscard]] const std::vector<double>& selection_bandwidth()
      const noexcept {
    return selection_bandwidth_;
  }
  /// Cumulative coordinator control-plane bytes observed in the last run.
  [[nodiscard]] double control_bytes() const noexcept { return control_bytes_; }

 private:
  SapsConfig config_;
  algos::Dynamics dyn_;
  std::vector<double> selection_bandwidth_;
  std::optional<ReputationMonitor> reputation_;
  double control_bytes_ = 0.0;
};

}  // namespace saps::core
