// Layer interface for the src/nn substrate (our libtorch substitute).
//
// Parameter storage convention: the owning Model holds ONE flat parameter
// vector and ONE flat gradient vector for the whole network (paper notation
// x ∈ R^N).  Layers are bound to sub-spans of those vectors once at build
// time via bind().  This makes the distributed algorithms trivial: masking,
// averaging and SGD all operate on the flat vectors directly.
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

  /// Binds this layer to its slice of the model's flat parameter/gradient
  /// vectors.  Called exactly once; spans have size param_count().
  virtual void bind(std::span<float> params, std::span<float> grads) = 0;

  /// Initializes the bound parameters.
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

  /// Appends this layer's non-trainable evaluation state (e.g. batch-norm
  /// running statistics) to `out`.  Stateless layers append nothing.  Used to
  /// replicate a model's full eval-mode behaviour into a clone (the engine's
  /// eval replicas); layers with children must forward the call in a fixed
  /// order matching load_buffers.
  virtual void save_buffers(std::vector<float>& out) const { (void)out; }

  /// Restores state written by save_buffers from the front of `in`; returns
  /// the number of floats consumed (0 for stateless layers).
  virtual std::size_t load_buffers(std::span<const float> in) {
    (void)in;
    return 0;
  }

  /// Human-readable layer name for summaries.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

}  // namespace saps::nn
