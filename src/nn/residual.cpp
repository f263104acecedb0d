#include "nn/residual.hpp"

#include <stdexcept>

namespace saps::nn {

ResidualBlock::ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                             std::size_t stride)
    : conv1_(in_channels, out_channels, 3, stride, 1, /*bias=*/false),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, /*bias=*/false),
      bn2_(out_channels) {
  if (stride != 1 || in_channels != out_channels) {
    proj_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0,
                                     /*bias=*/false);
    bn_proj_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

std::size_t ResidualBlock::param_count() const noexcept {
  std::size_t n = conv1_.param_count() + bn1_.param_count() +
                  conv2_.param_count() + bn2_.param_count();
  if (has_projection()) n += proj_->param_count() + bn_proj_->param_count();
  return n;
}

std::size_t ResidualBlock::buffer_count() const noexcept {
  std::size_t n = bn1_.buffer_count() + bn2_.buffer_count();
  if (has_projection()) n += bn_proj_->buffer_count();
  return n;
}

void ResidualBlock::bind(std::span<float> params, std::span<float> grads,
                         std::span<float> buffers) {
  if (params.size() != param_count() || grads.size() != param_count() ||
      buffers.size() != buffer_count()) {
    throw std::invalid_argument("ResidualBlock::bind: span size mismatch");
  }
  std::size_t off = 0, buf_off = 0;
  auto take = [&](Layer& layer) {
    const std::size_t n = layer.param_count(), nb = layer.buffer_count();
    layer.bind(params.subspan(off, n), grads.subspan(off, n),
               buffers.subspan(buf_off, nb));
    off += n;
    buf_off += nb;
  };
  take(conv1_);
  take(bn1_);
  take(conv2_);
  take(bn2_);
  if (has_projection()) {
    take(*proj_);
    take(*bn_proj_);
  }
}

void ResidualBlock::init(Rng& rng) {
  conv1_.init(rng);
  bn1_.init(rng);
  conv2_.init(rng);
  bn2_.init(rng);
  if (has_projection()) {
    proj_->init(rng);
    bn_proj_->init(rng);
  }
}

std::vector<std::size_t> ResidualBlock::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  auto s = conv1_.output_shape(in_shape);
  return conv2_.output_shape(s);
}

void ResidualBlock::forward(const Tensor& in, Tensor& out, bool train) {
  // Every mid tensor is fully written below before it is read, so resizing
  // (which keeps storage across batch sizes) changes no bit.
  const auto mid_shape = conv1_.output_shape(in.shape());
  for (Tensor* t : {&a_conv1_, &a_bn1_, &a_relu1_, &a_conv2_, &a_bn2_}) {
    t->resize(mid_shape);
  }
  a_skip_.resize(mid_shape);
  if (has_projection()) a_skip_conv_.resize(mid_shape);

  conv1_.forward(in, a_conv1_, train);
  bn1_.forward(a_conv1_, a_bn1_, train);
  const std::size_t n = a_bn1_.numel();
  relu1_mask_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = a_bn1_[i] > 0.0f;
    relu1_mask_[i] = pos ? 1 : 0;
    a_relu1_[i] = pos ? a_bn1_[i] : 0.0f;
  }
  conv2_.forward(a_relu1_, a_conv2_, train);
  bn2_.forward(a_conv2_, a_bn2_, train);

  if (has_projection()) {
    proj_->forward(in, a_skip_conv_, train);
    bn_proj_->forward(a_skip_conv_, a_skip_, train);
  } else {
    std::copy(in.data(), in.data() + in.numel(), a_skip_.data());
  }

  relu_out_mask_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float sum = a_bn2_[i] + a_skip_[i];
    const bool pos = sum > 0.0f;
    relu_out_mask_[i] = pos ? 1 : 0;
    out[i] = pos ? sum : 0.0f;
  }
}

void ResidualBlock::backward(const Tensor& in, const Tensor& dout,
                             Tensor& din) {
  const std::size_t n = dout.numel();
  if (relu_out_mask_.size() != n) {
    throw std::logic_error("ResidualBlock::backward before forward");
  }
  // The gradient scratch persists across calls: each tensor is fully
  // written before it is read (the ReLU gates and BatchNorm dx loops
  // overwrite, the conv backwards zero-fill their din).
  //
  // d(sum) through the output ReLU.
  dsum_.resize(a_bn2_.shape());
  for (std::size_t i = 0; i < n; ++i) {
    dsum_[i] = relu_out_mask_[i] ? dout[i] : 0.0f;
  }

  // Main path: dsum → bn2 → conv2 → relu1 → bn1 → conv1 → din (partial).
  d_conv2_.resize(a_conv2_.shape());
  bn2_.backward(a_conv2_, dsum_, d_conv2_);
  d_relu1_.resize(a_relu1_.shape());
  conv2_.backward(a_relu1_, d_conv2_, d_relu1_);
  for (std::size_t i = 0; i < n; ++i) {
    if (!relu1_mask_[i]) d_relu1_[i] = 0.0f;
  }
  d_conv1_.resize(a_conv1_.shape());
  bn1_.backward(a_conv1_, d_relu1_, d_conv1_);
  conv1_.backward(in, d_conv1_, din);

  // Skip path adds into din.  An empty din (input gradient not wanted) goes
  // to the projection conv as is, and the identity add covers no elements.
  if (has_projection()) {
    d_skip_conv_.resize(a_skip_conv_.shape());
    bn_proj_->backward(a_skip_conv_, dsum_, d_skip_conv_);
    if (din.empty()) {
      proj_->backward(in, d_skip_conv_, din);
      return;
    }
    d_in_skip_.resize(in.shape());
    proj_->backward(in, d_skip_conv_, d_in_skip_);
    for (std::size_t i = 0; i < din.numel(); ++i) din[i] += d_in_skip_[i];
  } else {
    for (std::size_t i = 0; i < din.numel(); ++i) din[i] += dsum_[i];
  }
}

}  // namespace saps::nn
