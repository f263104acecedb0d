// Pooling layers for NCHW activations.
#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace saps::nn {

/// Max pooling with square window and stride == window (the common CNN case).
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  [[nodiscard]] std::size_t param_count() const noexcept override { return 0; }
  void bind(std::span<float>, std::span<float>, std::span<float>) override {}
  void init(Rng&) override {}
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override;
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;

 private:
  std::size_t window_;
  // Flat input index of each output max; forward rejects inputs of 2^32 or
  // more elements.
  std::vector<std::uint32_t> argmax_;
};

/// Global average pooling: (B, C, H, W) → (B, C).
class GlobalAvgPool final : public Layer {
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
