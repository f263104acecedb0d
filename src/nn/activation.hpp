// Parameter-free activation layers.
#pragma once

#include "nn/layer.hpp"

namespace saps::nn {

/// Rectified linear unit.  Backward gates on the sign of the cached layer
/// input, so the layer keeps no state of its own.
class ReLU final : public Layer {
 public:
  [[nodiscard]] std::size_t param_count() const noexcept override { return 0; }
  void bind(std::span<float>, std::span<float>, std::span<float>) override {}
  void init(Rng&) override {}
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override {
    return in_shape;
  }
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
};

/// Reshapes (B, C, H, W) → (B, C*H*W).  No-op on rank-2 inputs.
class Flatten final : public Layer {
 public:
  [[nodiscard]] std::size_t param_count() const noexcept override { return 0; }
  void bind(std::span<float>, std::span<float>, std::span<float>) override {}
  void init(Rng&) override {}
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override;
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
};

}  // namespace saps::nn
