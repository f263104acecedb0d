// FedAvg (McMahan et al. 2017) and its sparsified variant S-FedAvg
// (Konečný et al. 2016): a parameter server samples a fraction C of workers
// per round; participants download the global model, train locally, and
// upload their model (S-FedAvg: upload only a seeded-random-masked subset of
// parameters, c = 100 in the paper).  FedAvg supplies only its round step to
// algos::run_rounds, with its own Schedule: each round adds local_steps /
// steps_per_epoch epochs (1 for one local epoch) to an accumulated progress,
// the server model is evaluated after every round, and a cohort run draws
// the cohort of round index + 1, keeping all but the parameters.
#pragma once

#include <optional>

#include "algos/algorithm.hpp"
#include "core/reputation.hpp"

namespace saps::algos {

struct FedAvgConfig {
  double fraction = 0.5;  // C — participant ratio (paper: 0.5)
  // Local mini-batch steps per round; 0 runs one local epoch (E = 1, the
  // paper's setting).  > 0 gives finer round granularity: the scaled-down
  // bench mode derives it so the FedAvg family gets several communication
  // rounds per epoch.
  std::size_t local_steps = 0;
  // S-FedAvg only: upload compression (values-only wire format, shared
  // per-round seed); 0 disables sparsification (plain FedAvg).
  double upload_compression = 0.0;
};

class FedAvg final : public Algorithm {
 public:
  explicit FedAvg(FedAvgConfig config = {}, Dynamics dynamics = {});

  [[nodiscard]] const char* name() const noexcept override {
    return config_.upload_compression > 0.0 ? "S-FedAvg" : "FedAvg";
  }
  sim::RunResult run(sim::Engine& engine) override;

  /// The last run's server-side reputation monitor (observe-only — it never
  /// changes the aggregate; bench_robustness reads its suspect list for
  /// detection precision/recall), or nullptr when reputation_decay was 0.
  [[nodiscard]] const core::ReputationMonitor* reputation() const noexcept {
    return reputation_ ? &*reputation_ : nullptr;
  }

 private:
  FedAvgConfig config_;
  Dynamics dyn_;
  std::optional<core::ReputationMonitor> reputation_;
};

}  // namespace saps::algos
