#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace saps::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  if (channels == 0) throw std::invalid_argument("BatchNorm2d: zero channels");
}

void BatchNorm2d::bind(std::span<float> params, std::span<float> grads,
                       std::span<float> buffers) {
  if (params.size() != param_count() || grads.size() != param_count() ||
      buffers.size() != buffer_count()) {
    throw std::invalid_argument("BatchNorm2d::bind: span size mismatch");
  }
  gamma_ = params.subspan(0, channels_);
  beta_ = params.subspan(channels_, channels_);
  dgamma_ = grads.subspan(0, channels_);
  dbeta_ = grads.subspan(channels_, channels_);
  running_mean_ = buffers.subspan(0, channels_);
  running_var_ = buffers.subspan(channels_, channels_);
}

void BatchNorm2d::init(Rng& /*rng*/) {
  for (auto& v : gamma_) v = 1.0f;
  for (auto& v : beta_) v = 0.0f;
  for (auto& v : running_mean_) v = 0.0f;
  for (auto& v : running_var_) v = 1.0f;
}

std::vector<std::size_t> BatchNorm2d::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  if (in_shape.size() != 4 || in_shape[1] != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected NCHW with C=" +
                                std::to_string(channels_));
  }
  return in_shape;
}

void BatchNorm2d::forward(const Tensor& in, Tensor& out, bool train) {
  const std::size_t batch = in.dim(0), plane = in.dim(2) * in.dim(3);
  const std::size_t per_channel = batch * plane;

  if (train) {
    batch_mean_.assign(channels_, 0.0f);
    batch_inv_std_.assign(channels_, 0.0f);
    xhat_.resize(in.numel());
    for (std::size_t c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t s = 0; s < batch; ++s) {
        const float* src = in.data() + (s * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += src[i];
          sq += static_cast<double>(src[i]) * src[i];
        }
      }
      const double mean = sum / static_cast<double>(per_channel);
      const double var = sq / static_cast<double>(per_channel) - mean * mean;
      batch_mean_[c] = static_cast<float>(mean);
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      batch_inv_std_[c] = inv_std;
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var);
      for (std::size_t s = 0; s < batch; ++s) {
        const std::size_t base = (s * channels_ + c) * plane;
        const float* src = in.data() + base;
        float* xh = xhat_.data() + base;
        float* dst = out.data() + base;
        for (std::size_t i = 0; i < plane; ++i) {
          xh[i] = (src[i] - batch_mean_[c]) * inv_std;
          dst[i] = gamma_[c] * xh[i] + beta_[c];
        }
      }
    }
  } else {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
      const float mean = running_mean_[c];
      for (std::size_t s = 0; s < batch; ++s) {
        const std::size_t base = (s * channels_ + c) * plane;
        const float* src = in.data() + base;
        float* dst = out.data() + base;
        for (std::size_t i = 0; i < plane; ++i) {
          dst[i] = gamma_[c] * (src[i] - mean) * inv_std + beta_[c];
        }
      }
    }
  }
}

void BatchNorm2d::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  if (xhat_.size() != in.numel()) {
    throw std::logic_error("BatchNorm2d::backward requires a training forward");
  }
  const std::size_t batch = in.dim(0), plane = in.dim(2) * in.dim(3);
  const auto m = static_cast<float>(batch * plane);

  for (std::size_t c = 0; c < channels_; ++c) {
    // Accumulate the two reductions the BN backward needs.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t s = 0; s < batch; ++s) {
      const std::size_t base = (s * channels_ + c) * plane;
      const float* dy = dout.data() + base;
      const float* xh = xhat_.data() + base;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    dbeta_[c] += static_cast<float>(sum_dy);
    dgamma_[c] += static_cast<float>(sum_dy_xhat);
    if (din.empty()) continue;  // input gradient not wanted

    const float g = gamma_[c] * batch_inv_std_[c];
    const auto mean_dy = static_cast<float>(sum_dy) / m;
    const auto mean_dy_xhat = static_cast<float>(sum_dy_xhat) / m;
    for (std::size_t s = 0; s < batch; ++s) {
      const std::size_t base = (s * channels_ + c) * plane;
      const float* dy = dout.data() + base;
      const float* xh = xhat_.data() + base;
      float* dx = din.data() + base;
      for (std::size_t i = 0; i < plane; ++i) {
        dx[i] = g * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
      }
    }
  }
}

}  // namespace saps::nn
