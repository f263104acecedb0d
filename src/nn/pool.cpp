#include "nn/pool.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SAPS_POOL_X86 1
#else
#define SAPS_POOL_X86 0
#endif

namespace saps::nn {

namespace {

// The generic loop of MaxPool2d::forward, unrolled for the 2×2 window
// every model uses: the same scan order and strict `>` from -inf (the first
// maximum wins, a NaN is never chosen, a window with nothing above -inf
// reports its plane's first element), as straight-line selects over the
// four inputs.  Nothing carries across output columns, so the x loop
// vectorizes.  Flat indices fit in 32 bits (MaxPool2d::forward checks).
[[gnu::always_inline]] inline void max_pool_2x2(
    const float* in, std::size_t planes, std::size_t h, std::size_t w,
    float* __restrict out, std::uint32_t* __restrict argmax) {
  const float lowest = -std::numeric_limits<float>::infinity();
  const std::size_t oh = h / 2, ow = w / 2;
  const auto down = static_cast<std::uint32_t>(w);
  for (std::size_t p = 0; p < planes; ++p) {
    const auto first = static_cast<std::uint32_t>(p * h * w);
    for (std::size_t y = 0; y < oh; ++y, out += ow, argmax += ow) {
      const auto row = static_cast<std::uint32_t>(first + 2 * y * w);
      const float* top = in + row;
      const float* bottom = top + w;
      for (std::size_t x = 0; x < ow; ++x) {
        const std::uint32_t i00 = row + 2 * static_cast<std::uint32_t>(x);
        const float v00 = top[2 * x], v01 = top[2 * x + 1];
        const float v10 = bottom[2 * x], v11 = bottom[2 * x + 1];
        const bool t00 = v00 > lowest;
        float best = t00 ? v00 : lowest;
        std::uint32_t idx = t00 ? i00 : first;
        const bool t01 = v01 > best;
        best = t01 ? v01 : best;
        idx = t01 ? i00 + 1 : idx;
        const bool t10 = v10 > best;
        best = t10 ? v10 : best;
        idx = t10 ? i00 + down : idx;
        const bool t11 = v11 > best;
        best = t11 ? v11 : best;
        idx = t11 ? i00 + down + 1 : idx;
        out[x] = best;
        argmax[x] = idx;
      }
    }
  }
}

#if SAPS_POOL_X86
// The same body compiled for AVX2, used where the kernel backend is AVX2
// (ops::gemm_backend): its vcmpps/vblendvps selects take eight outputs at a
// time.  Selects only move bits, so it matches the baseline-ISA build that
// MaxPool2d::forward inlines otherwise.
__attribute__((target("avx2"))) void max_pool_2x2_avx2(const float* in,
                                                       std::size_t planes,
                                                       std::size_t h,
                                                       std::size_t w,
                                                       float* out,
                                                       std::uint32_t* argmax) {
  max_pool_2x2(in, planes, h, w, out, argmax);
}
#endif

}  // namespace

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool2d: zero window");
}

std::vector<std::size_t> MaxPool2d::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  if (in_shape.size() != 4) {
    throw std::invalid_argument("MaxPool2d: expected NCHW input");
  }
  if (in_shape[2] < window_ || in_shape[3] < window_) {
    throw std::invalid_argument("MaxPool2d: window larger than input");
  }
  return {in_shape[0], in_shape[1], in_shape[2] / window_,
          in_shape[3] / window_};
}

void MaxPool2d::forward(const Tensor& in, Tensor& out, bool /*train*/) {
  if (in.numel() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("MaxPool2d: input has 2^32 or more elements");
  }
  const std::size_t batch = in.dim(0), channels = in.dim(1), h = in.dim(2),
                    w = in.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  argmax_.resize(batch * channels * oh * ow);
  if (window_ == 2) {
#if SAPS_POOL_X86
    if (ops::gemm_backend() == ops::GemmBackend::kAvx2) {
      max_pool_2x2_avx2(in.data(), batch * channels, h, w, out.data(),
                        argmax_.data());
      return;
    }
#endif
    max_pool_2x2(in.data(), batch * channels, h, w, out.data(),
                 argmax_.data());
    return;
  }
  std::size_t oi = 0;
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t c = 0; c < channels; ++c) {
      const std::size_t first = (s * channels + c) * h * w;
      const float* plane = in.data() + first;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t idx =
                  (y * window_ + dy) * w + (x * window_ + dx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          out[oi] = best;
          argmax_[oi] = static_cast<std::uint32_t>(first + best_idx);
        }
      }
    }
  }
}

void MaxPool2d::backward(const Tensor& /*in*/, const Tensor& dout,
                         Tensor& din) {
  if (argmax_.size() != dout.numel()) {
    throw std::logic_error("MaxPool2d::backward before forward");
  }
  din.fill(0.0f);
  for (std::size_t i = 0; i < argmax_.size(); ++i) din[argmax_[i]] += dout[i];
}

std::vector<std::size_t> GlobalAvgPool::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  if (in_shape.size() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected NCHW input");
  }
  return {in_shape[0], in_shape[1]};
}

void GlobalAvgPool::forward(const Tensor& in, Tensor& out, bool /*train*/) {
  const std::size_t batch = in.dim(0), channels = in.dim(1),
                    plane = in.dim(2) * in.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* src = in.data() + (s * channels + c) * plane;
      float acc = 0.0f;
      for (std::size_t i = 0; i < plane; ++i) acc += src[i];
      out[s * channels + c] = acc * inv;
    }
  }
}

void GlobalAvgPool::backward(const Tensor& in, const Tensor& dout,
                             Tensor& din) {
  const std::size_t batch = in.dim(0), channels = in.dim(1),
                    plane = in.dim(2) * in.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float g = dout[s * channels + c] * inv;
      float* dst = din.data() + (s * channels + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) dst[i] = g;
    }
  }
}

}  // namespace saps::nn
