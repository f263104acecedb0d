// TopK-PSGD: synchronous SGD where each worker sends its error-feedback
// top-k sparsified gradient to ALL peers (ring all-gather), then everyone
// applies the identical averaged sparse update.  c = 1000 in the paper.
//
// Communication on a worker is O(n·N/c) per round (Table I) — sparsification
// helps, but the all-gather keeps the linear-in-n term SAPS-PSGD removes.
#pragma once

#include "algos/algorithm.hpp"

namespace saps::algos {

struct TopkConfig {
  double compression = 1000.0;  // c
};

class TopkPsgd final : public Algorithm {
 public:
  explicit TopkPsgd(TopkConfig config = {}, Dynamics dynamics = {})
      : config_(config), dyn_(std::move(dynamics)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "TopK-PSGD";
  }
  sim::RunResult run(sim::Engine& engine) const override;

 private:
  TopkConfig config_;
  Dynamics dyn_;
};

}  // namespace saps::algos
