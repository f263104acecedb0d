// 2-D convolution (NCHW).  Stride-1 convolutions run the direct kernels
// (ops::conv_forward, conv_weight_grad, conv_input_grad); strided ones run
// im2col + GEMM (+ col2im).  Both give the same bits.
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

 private:
  void check_input(const std::vector<std::size_t>& in_shape) const;

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  std::span<float> w_, b_, dw_, db_;
  // Reused across samples and calls.  scratch_ holds the im2col columns
  // (strided) or the padded sample and transposed gradients (stride 1);
  // din_scratch_ the column gradient or the padded gradient plane, sized
  // only once an input gradient is wanted.
  std::vector<float> scratch_;
  std::vector<float> din_scratch_;
};

}  // namespace saps::nn
