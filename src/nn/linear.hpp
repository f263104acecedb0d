// Fully-connected layer: out = in · Wᵀ + b, W is (out_dim × in_dim).
#pragma once

#include "nn/layer.hpp"

namespace saps::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_dim, std::size_t out_dim);

  [[nodiscard]] std::size_t param_count() const noexcept override {
    return in_dim_ * out_dim_ + out_dim_;
  }
  void bind(std::span<float> params, std::span<float> grads,
            std::span<float> buffers) override;
  void init(Rng& rng) override;
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override;
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  std::span<float> w_, b_, dw_, db_;
};

}  // namespace saps::nn
