// PSGD with (idealized) all-reduce: every iteration all workers take one
// local step and then exactly average all models.  Worker-side accounting
// follows the paper's Table I (2N per worker per round over the ring).
#pragma once

#include "algos/algorithm.hpp"

namespace saps::algos {

class PsgdAllReduce final : public Algorithm {
 public:
  explicit PsgdAllReduce(Dynamics dynamics = {}) : dyn_(std::move(dynamics)) {}

  [[nodiscard]] const char* name() const noexcept override { return "PSGD"; }
  sim::RunResult run(sim::Engine& engine) const override;

 private:
  Dynamics dyn_;
};

}  // namespace saps::algos
