// Layer interface for the src/nn substrate (our libtorch substitute).
//
// State storage convention: a Model holds ONE flat parameter vector, ONE
// flat gradient vector and ONE flat buffer vector (non-trainable state such
// as batch-norm running statistics) for the whole network (paper notation
// x ∈ R^N for the parameters).  Layers are bound to sub-spans of those
// vectors via bind(), and can be rebound to another model's vectors: a
// layer keeps no state of its own beyond per-batch scratch.  This makes the
// distributed algorithms trivial: masking, averaging and SGD all operate on
// the flat vectors directly.
//
// Shape convention: activations are rank-2 (B, D) or rank-4 (B, C, H, W),
// row-major.  forward() may cache whatever it needs for backward(); backward
// receives the same `in` tensor that forward saw.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saps::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Number of trainable floats this layer (including children) needs.
  [[nodiscard]] virtual std::size_t param_count() const noexcept = 0;

  /// Number of non-trainable state floats (e.g. batch-norm running
  /// statistics) this layer (including children) needs.
  [[nodiscard]] virtual std::size_t buffer_count() const noexcept {
    return 0;
  }

  /// Binds this layer to its slices of a model's flat parameter, gradient
  /// and buffer vectors, of sizes param_count(), param_count() and
  /// buffer_count().  Called at build and again whenever the model is
  /// rebound to other state; allocates nothing.  Layers with children bind
  /// them in a fixed order.
  virtual void bind(std::span<float> params, std::span<float> grads,
                    std::span<float> buffers) = 0;

  /// Initializes the bound parameters and buffers.
  virtual void init(Rng& rng) = 0;

  /// Output shape for a given input shape (excluding batch handling: the
  /// shapes passed include the batch dimension at index 0).
  [[nodiscard]] virtual std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in_shape) const = 0;

  /// Forward pass.  `train` toggles training-time behaviour (batch-norm).
  /// `out` is pre-allocated with output_shape(in.shape()).
  virtual void forward(const Tensor& in, Tensor& out, bool train) = 0;

  /// Backward pass: given d(loss)/d(out), accumulate parameter gradients into
  /// the bound gradient span and write d(loss)/d(in) into `din` (pre-sized
  /// like `in`).  An empty `din` means the input gradient is not wanted:
  /// Model passes one to its first layer with parameters, whose input
  /// gradient nothing reads.  Every layer with parameters must honour it by
  /// skipping that work while leaving its parameter gradients bit-identical;
  /// parameter-free layers never receive one.
  virtual void backward(const Tensor& in, const Tensor& dout, Tensor& din) = 0;
};

}  // namespace saps::nn
