// Sequential model with ONE flat parameter vector — the `x ∈ R^N` that the
// distributed algorithms sparsify, exchange and average.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saps::nn {

class Model {
 public:
  Model() = default;

  /// Appends a layer.  Must be called before build().
  void add(std::unique_ptr<Layer> layer);

  /// Allocates flat parameter/gradient storage, binds all layers, and
  /// initializes parameters from `seed`.  `input_shape` excludes the batch
  /// dimension, e.g. {1, 28, 28} or {784}.
  void build(std::vector<std::size_t> input_shape, std::uint64_t seed);

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] std::size_t param_count() const noexcept {
    return params_.size();
  }

  /// The flat model vector x (paper notation) and its gradient ∇x.
  [[nodiscard]] std::span<float> parameters() noexcept { return params_; }
  [[nodiscard]] std::span<const float> parameters() const noexcept {
    return params_;
  }
  [[nodiscard]] std::span<float> gradients() noexcept { return grads_; }
  [[nodiscard]] std::span<const float> gradients() const noexcept {
    return grads_;
  }

  void zero_grad() noexcept;

  /// Forward + loss + backward on one mini-batch; gradients are ACCUMULATED
  /// into gradients() (call zero_grad() first).  `x` is (B, ...input_shape),
  /// labels has length B.  Returns the mean loss.  Every forward pass
  /// (here, evaluate_batch, predict) throws std::invalid_argument when x's
  /// per-sample shape is not input_shape().
  double train_batch(const Tensor& x, std::span<const std::int32_t> labels);

  /// Forward in eval mode; returns {mean loss, #correct}.
  struct EvalResult {
    double loss = 0.0;
    std::size_t correct = 0;
  };
  EvalResult evaluate_batch(const Tensor& x,
                            std::span<const std::int32_t> labels);

  /// Forward in eval mode, returning logits (for inspection/examples).
  const Tensor& predict(const Tensor& x);

  [[nodiscard]] const std::vector<std::size_t>& input_shape() const noexcept {
    return input_shape_;
  }
  [[nodiscard]] std::size_t num_classes() const;

  /// Concatenated non-trainable evaluation state of all layers (batch-norm
  /// running statistics); empty for buffer-free models.  Together with
  /// parameters(), this is the complete eval-mode state of the network.
  [[nodiscard]] std::vector<float> buffers() const;
  /// Restores state captured by buffers() from an architecturally identical
  /// model; throws on size mismatch.
  void set_buffers(std::span<const float> state);

  /// One-line-per-layer summary.
  [[nodiscard]] std::string summary() const;

 private:
  void ensure_activations(const std::vector<std::size_t>& batch_input_shape);
  void ensure_gradients();
  const Tensor& forward(const Tensor& x, bool train);

  std::vector<std::unique_ptr<Layer>> layers_;
  // Backward stops at this layer: the first one with parameters
  // (layers_.size() when none has any).
  std::size_t first_trainable_ = 0;
  std::vector<float> params_, grads_;
  std::vector<std::size_t> input_shape_;
  bool built_ = false;

  // acts_[i] is the output of layer i (layer 0 reads the external input).
  // dacts_[i] is the loss gradient with respect to acts_[i]; only
  // train_batch sizes it, so forward-only passes (evaluate_batch, predict)
  // never hold gradient storage at their batch size.  Both keep their
  // storage across batch sizes (Tensor::resize).
  std::vector<Tensor> acts_;
  std::vector<Tensor> dacts_;
  Tensor dlogits_;
  std::size_t cached_batch_ = 0;
};

}  // namespace saps::nn
