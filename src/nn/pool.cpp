#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>

namespace saps::nn {

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
  const std::size_t batch = in.dim(0), channels = in.dim(1), h = in.dim(2),
                    w = in.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  argmax_.resize(batch * channels * oh * ow);
  std::size_t oi = 0;
  if (window_ == 2) {
    // The generic loop below, unrolled for the 2×2 window every model uses:
    // the same scan order, the same strict `>` from -inf (so the first
    // maximum wins and a NaN is never chosen), as branch-free selects.
    for (std::size_t p = 0; p < batch * channels; ++p) {
      const float* plane = in.data() + p * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          const std::size_t i00 = 2 * y * w + 2 * x;
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (const std::size_t idx : {i00, i00 + 1, i00 + w, i00 + w + 1}) {
            const float v = plane[idx];
            const bool take = v > best;
            best = take ? v : best;
            best_idx = take ? idx : best_idx;
          }
          out[oi] = best;
          argmax_[oi] = p * h * w + best_idx;
        }
      }
    }
    return;
  }
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* plane = in.data() + (s * channels + c) * h * w;
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
          argmax_[oi] = (s * channels + c) * h * w + best_idx;
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
