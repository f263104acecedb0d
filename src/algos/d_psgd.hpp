// D-PSGD (Lian et al. 2017) on the fixed ring: every iteration each worker
// takes a local step, exchanges its FULL model with both ring neighbors and
// averages with weights 1/3 — the uncompressed decentralized baseline.
//
// DCD-PSGD (Tang et al. 2018) reuses the same ring but exchanges a top-k
// compressed DIFFERENCE against a shared public copy x̂ (c = 4 in the
// paper); each worker keeps replicas of its neighbors' public copies.
#pragma once

#include "algos/algorithm.hpp"

namespace saps::algos {

class DPsgd final : public Algorithm {
 public:
  explicit DPsgd(Dynamics dynamics = {}) : dyn_(std::move(dynamics)) {}

  [[nodiscard]] const char* name() const noexcept override { return "D-PSGD"; }
  sim::RunResult run(sim::Engine& engine) const override;

 private:
  Dynamics dyn_;
};

struct DcdConfig {
  double compression = 4.0;  // c; the paper notes c > 4 costs accuracy and
                             // c ≈ 100+ fails to converge for DCD.
};

class DcdPsgd final : public Algorithm {
 public:
  explicit DcdPsgd(DcdConfig config = {}, Dynamics dynamics = {})
      : config_(config), dyn_(std::move(dynamics)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "DCD-PSGD";
  }
  sim::RunResult run(sim::Engine& engine) const override;

 private:
  DcdConfig config_;
  Dynamics dyn_;
};

}  // namespace saps::algos
