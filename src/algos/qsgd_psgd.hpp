// QSGD-PSGD: synchronous SGD with stochastically quantized gradient
// all-gather (Alistarh et al. 2017) — the quantization-family baseline the
// paper's related-work section argues against: at b bits per coordinate the
// compression is capped at 32/b, far below the 100–1000× that sparsification
// reaches.  Included to back that claim quantitatively
// (bench_ablation_compression --quantized).
#pragma once

#include "algos/algorithm.hpp"

namespace saps::algos {

struct QsgdConfig {
  std::uint8_t levels = 4;  // s quantization levels (≈ ceil(log2(2s+1)) bits)
};

class QsgdPsgd final : public Algorithm {
 public:
  explicit QsgdPsgd(QsgdConfig config = {}, Dynamics dynamics = {})
      : config_(config), dyn_(std::move(dynamics)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "QSGD-PSGD";
  }
  sim::RunResult run(sim::Engine& engine) const override;

 private:
  QsgdConfig config_;
  Dynamics dyn_;
};

}  // namespace saps::algos
