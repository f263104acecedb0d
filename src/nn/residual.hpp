// Basic residual block for ResNet-20 (He et al. 2016, CIFAR variant):
//   out = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + skip(x) )
// skip(x) is the identity when shapes match, else a strided 1×1
// projection convolution followed by batch-norm.
#pragma once

#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"

namespace saps::nn {

class ResidualBlock final : public Layer {
 public:
  /// stride > 1 (or in_channels != out_channels) enables the projection skip.
  ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                std::size_t stride);

  [[nodiscard]] std::size_t param_count() const noexcept override;
  [[nodiscard]] std::size_t buffer_count() const noexcept override;
  void bind(std::span<float> params, std::span<float> grads,
            std::span<float> buffers) override;
  void init(Rng& rng) override;
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override;
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;

 private:
  bool has_projection() const noexcept { return proj_ != nullptr; }

  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> proj_;
  std::unique_ptr<BatchNorm2d> bn_proj_;

  // Forward caches for backward.
  Tensor a_conv1_, a_bn1_, a_relu1_, a_conv2_, a_bn2_, a_skip_conv_, a_skip_;
  std::vector<unsigned char> relu1_mask_, relu_out_mask_;
  // Backward scratch, kept across calls.
  Tensor dsum_, d_conv2_, d_relu1_, d_conv1_, d_skip_conv_, d_in_skip_;
};

}  // namespace saps::nn
