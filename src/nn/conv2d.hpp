// 2-D convolution (NCHW) via im2col + GEMM.
#pragma once

#include "nn/layer.hpp"

namespace saps::nn {

class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t pad = 0, bool bias = true);

  [[nodiscard]] std::size_t param_count() const noexcept override {
    return out_channels_ * in_channels_ * kernel_ * kernel_ +
           (has_bias_ ? out_channels_ : 0);
  }
  void bind(std::span<float> params, std::span<float> grads,
            std::span<float> buffers) override;
  void init(Rng& rng) override;
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override;
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  [[nodiscard]] const char* name() const noexcept override { return "Conv2d"; }

 private:
  void check_input(const std::vector<std::size_t>& in_shape) const;

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  std::span<float> w_, b_, dw_, db_;
  std::vector<float> cols_;   // im2col scratch, reused across samples/calls
  std::vector<float> dcols_;  // backward column-gradient scratch, reused too
};

}  // namespace saps::nn
