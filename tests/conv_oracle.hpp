// The im2col + GEMM (+ col2im) path of a convolution over a batch of NCHW
// samples: the oracle the direct stride-1 kernels (ops::conv_forward,
// conv_weight_grad, conv_input_grad) and the stride-1 Conv2d must match bit
// for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saps::test_util {

struct ConvDims {
  std::size_t taps, pixels, in_size, out_size;  // the last two per sample
};

inline ConvDims conv_dims(const ops::ConvShape& s) {
  const std::size_t out_h = s.height + 2 * s.pad - s.kernel + 1;
  const std::size_t out_w = s.width + 2 * s.pad - s.kernel + 1;
  return {s.channels * s.kernel * s.kernel, out_h * out_w,
          s.channels * s.height * s.width, s.out_channels * out_h * out_w};
}

inline std::vector<float> oracle_columns(const ops::ConvShape& s,
                                         const float* img) {
  const ConvDims d = conv_dims(s);
  std::vector<float> cols(d.taps * d.pixels);
  ops::im2col({img, d.in_size}, s.channels, s.height, s.width, s.kernel,
              s.kernel, 1, s.pad, cols);
  return cols;
}

/// out(b) = W · im2col(in(b)), plus the per-channel bias when given.
inline void oracle_conv_forward(const ops::ConvShape& s, std::size_t batch,
                                const std::vector<float>& in,
                                const std::vector<float>& w,
                                const std::vector<float>& bias,
                                std::vector<float>& out) {
  const ConvDims d = conv_dims(s);
  const ops::GemmEpilogue ep{.bias = bias,
                             .bias_axis = ops::GemmEpilogue::BiasAxis::kRow};
  for (std::size_t b = 0; b < batch; ++b) {
    const auto cols = oracle_columns(s, in.data() + b * d.in_size);
    const std::span<float> out_b(out.data() + b * d.out_size, d.out_size);
    if (bias.empty()) {
      ops::gemm(w, cols, out_b, s.out_channels, d.taps, d.pixels);
    } else {
      ops::gemm_fused(w, cols, out_b, s.out_channels, d.taps, d.pixels, ep);
    }
  }
}

/// dw += dout(b) · im2col(in(b))ᵀ, sample after sample.
inline void oracle_conv_weight_grad(const ops::ConvShape& s, std::size_t batch,
                                    const std::vector<float>& in,
                                    const std::vector<float>& dout,
                                    std::vector<float>& dw) {
  const ConvDims d = conv_dims(s);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto cols = oracle_columns(s, in.data() + b * d.in_size);
    ops::gemm_a_bt_acc({dout.data() + b * d.out_size, d.out_size}, cols, dw,
                       s.out_channels, d.pixels, d.taps);
  }
}

/// din(b) = col2im(Wᵀ · dout(b)) into zeroed images.
inline void oracle_conv_input_grad(const ops::ConvShape& s, std::size_t batch,
                                   const std::vector<float>& w,
                                   const std::vector<float>& dout,
                                   std::vector<float>& din) {
  const ConvDims d = conv_dims(s);
  std::fill(din.begin(), din.end(), 0.0f);
  std::vector<float> dcols(d.taps * d.pixels);
  for (std::size_t b = 0; b < batch; ++b) {
    std::fill(dcols.begin(), dcols.end(), 0.0f);
    ops::gemm_at_b_acc(w, {dout.data() + b * d.out_size, d.out_size}, dcols,
                       d.taps, s.out_channels, d.pixels);
    ops::col2im(dcols, s.channels, s.height, s.width, s.kernel, s.kernel, 1,
                s.pad, {din.data() + b * d.in_size, d.in_size});
  }
}

/// Values of mixed magnitude and sign with ±0 and denormals sprinkled in,
/// and ±inf and NaN too when `nonfinite`.  Every NaN is the one the
/// hardware makes for ∞ − ∞, so no result's bits depend on which of two NaN
/// operands an instruction propagates.
inline std::vector<float> conv_test_values(Rng& rng, std::size_t n,
                                           bool nonfinite) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, 1e-40f, -3e-42f, inf, -inf,
                            inf - inf};
  std::vector<float> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng() % 128;
    if (r < 8) {
      x = specials[r % 4];
    } else if (r == 8 && nonfinite) {
      x = specials[4 + rng() % 3];
    } else {
      x = static_cast<float>(rng.next_normal() *
                             static_cast<double>(1u << (rng() % 12)));
    }
  }
  return v;
}

}  // namespace saps::test_util
