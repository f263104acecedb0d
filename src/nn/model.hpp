// Sequential model with ONE flat parameter vector — the `x ∈ R^N` that the
// distributed algorithms sparsify, exchange and average — plus flat gradient
// and buffer vectors.  A model can compute on state it does not own: bind()
// points its layers at another model's vectors, while the activations and
// layer scratch stay its own.
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

  /// Allocates flat parameter/gradient/buffer storage, binds all layers to
  /// it, and initializes parameters and buffers from `seed`.  `input_shape`
  /// excludes the batch dimension, e.g. {1, 28, 28} or {784}.
  void build(std::vector<std::size_t> input_shape, std::uint64_t seed);

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] std::size_t param_count() const noexcept {
    return params_.size();
  }
  [[nodiscard]] std::size_t buffer_count() const noexcept {
    return buffers_.size();
  }

  /// Points every layer at the given state, typically another built model's
  /// parameters(), gradients() and buffers() of the same architecture:
  /// `params` and `grads` of param_count() floats, `buffers` of
  /// buffer_count().  Until the next bind, every pass reads and writes that
  /// state, and parameters(), gradients() and buffers() return these spans;
  /// the activations and layer scratch stay this model's own.  O(#layers)
  /// and allocation-free.  Throws std::invalid_argument on a size mismatch,
  /// leaving the binding as it was.  A built model starts bound to its own
  /// storage.
  void bind(std::span<float> params, std::span<float> grads,
            std::span<float> buffers);

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
  /// labels has length B.  Returns the mean loss.  Both forward passes
  /// (here and evaluate_batch) throw std::invalid_argument when x's
  /// per-sample shape is not input_shape().
  double train_batch(const Tensor& x, std::span<const std::int32_t> labels);

  /// Forward in eval mode; returns {mean loss, #correct}.
  struct EvalResult {
    double loss = 0.0;
    std::size_t correct = 0;
  };
  EvalResult evaluate_batch(const Tensor& x,
                            std::span<const std::int32_t> labels);

  [[nodiscard]] const std::vector<std::size_t>& input_shape() const noexcept {
    return input_shape_;
  }

  /// The flat non-trainable evaluation state of all layers (batch-norm
  /// running statistics); empty for buffer-free models.  Together with
  /// parameters(), this is the complete eval-mode state of the network.
  [[nodiscard]] std::span<float> buffers() noexcept { return buffers_; }
  [[nodiscard]] std::span<const float> buffers() const noexcept {
    return buffers_;
  }
  /// Copies `state` (buffers() of an architecturally identical model) into
  /// buffers(); throws std::invalid_argument unless it is buffer_count()
  /// long.
  void set_buffers(std::span<const float> state);

 private:
  void bind_layers(std::span<float> params, std::span<float> grads,
                   std::span<float> buffers);
  void ensure_activations(const std::vector<std::size_t>& batch_input_shape);
  void ensure_gradients();
  const Tensor& forward(const Tensor& x, bool train);

  std::vector<std::unique_ptr<Layer>> layers_;
  // Backward stops at this layer: the first one with parameters
  // (layers_.size() when none has any).
  std::size_t first_trainable_ = 0;
  // The storage build() allocates, and the state the layers are bound to
  // (this storage until bind() points them elsewhere).
  std::vector<float> own_params_, own_grads_, own_buffers_;
  std::span<float> params_, grads_, buffers_;
  std::vector<std::size_t> input_shape_;
  bool built_ = false;

  // acts_[i] is the output of layer i (layer 0 reads the external input).
  // dacts_[i] is the loss gradient with respect to acts_[i]; only
  // train_batch sizes it, so evaluate_batch's forward-only passes never
  // hold gradient storage at their batch size.  Both keep their
  // storage across batch sizes (Tensor::resize).
  std::vector<Tensor> acts_;
  std::vector<Tensor> dacts_;
  Tensor dlogits_;
  std::size_t cached_batch_ = 0;
};

}  // namespace saps::nn
