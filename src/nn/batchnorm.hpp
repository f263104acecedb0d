// Batch normalization over the channel dimension of NCHW activations
// (Ioffe & Szegedy 2015), with running statistics for evaluation mode.
//
// Note on distributed semantics: gamma/beta are trainable and live in the
// model's flat parameter vector (so they are exchanged/sparsified like any
// other parameter, as in the paper's full-model exchange).  Running mean/var
// live in the model's flat buffer vector: local statistics that are NOT
// exchanged — matching how D-PSGD-style systems treat buffer state.
#pragma once

#include "nn/layer.hpp"

namespace saps::nn {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  [[nodiscard]] std::size_t param_count() const noexcept override {
    return 2 * channels_;  // gamma, beta
  }
  [[nodiscard]] std::size_t buffer_count() const noexcept override {
    return 2 * channels_;  // running mean, running variance
  }
  void bind(std::span<float> params, std::span<float> grads,
            std::span<float> buffers) override;
  void init(Rng& rng) override;
  [[nodiscard]] std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const override;
  void forward(const Tensor& in, Tensor& out, bool train) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;

 private:
  std::size_t channels_;
  float momentum_, eps_;
  std::span<float> gamma_, beta_, dgamma_, dbeta_;
  std::span<float> running_mean_, running_var_;
  // Cached from the training-mode forward for backward:
  std::vector<float> batch_mean_, batch_inv_std_, xhat_;
};

}  // namespace saps::nn
