#include "nn/activation.hpp"

#include <algorithm>
#include <stdexcept>

namespace saps::nn {

void ReLU::forward(const Tensor& in, Tensor& out, bool /*train*/) {
  const std::size_t n = in.numel();
  const float* src = in.data();
  float* dst = out.data();
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void ReLU::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  // The gate recomputes from the cached layer input (`in` is the activation
  // the model already keeps for backward), so no mask buffer is maintained.
  const std::size_t n = in.numel();
  const float* gate = in.data();
  const float* src = dout.data();
  float* dst = din.data();
  // Loading dout before the select (rather than only on the taken branch)
  // lets the loop vectorize as a compare-and-blend; the bits are the same.
  for (std::size_t i = 0; i < n; ++i) {
    const float g = src[i];
    dst[i] = gate[i] > 0.0f ? g : 0.0f;
  }
}

std::vector<std::size_t> Flatten::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  if (in_shape.empty()) throw std::invalid_argument("Flatten: empty shape");
  std::size_t flat = 1;
  for (std::size_t i = 1; i < in_shape.size(); ++i) flat *= in_shape[i];
  return {in_shape[0], flat};
}

void Flatten::forward(const Tensor& in, Tensor& out, bool /*train*/) {
  std::copy(in.data(), in.data() + in.numel(), out.data());
}

void Flatten::backward(const Tensor& /*in*/, const Tensor& dout, Tensor& din) {
  std::copy(dout.data(), dout.data() + dout.numel(), din.data());
}

}  // namespace saps::nn
