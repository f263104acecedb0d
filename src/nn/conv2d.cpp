#include "nn/conv2d.hpp"

#include <stdexcept>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace saps::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  if (in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: zero parameter");
  }
}

void Conv2d::bind(std::span<float> params, std::span<float> grads,
                  std::span<float> /*buffers*/) {
  if (params.size() != param_count() || grads.size() != param_count()) {
    throw std::invalid_argument("Conv2d::bind: span size mismatch");
  }
  const std::size_t wsize = out_channels_ * in_channels_ * kernel_ * kernel_;
  w_ = params.subspan(0, wsize);
  dw_ = grads.subspan(0, wsize);
  if (has_bias_) {
    b_ = params.subspan(wsize, out_channels_);
    db_ = grads.subspan(wsize, out_channels_);
  }
}

void Conv2d::init(Rng& rng) {
  init_he_normal(w_, in_channels_ * kernel_ * kernel_, rng);
  for (auto& v : b_) v = 0.0f;
}

void Conv2d::check_input(const std::vector<std::size_t>& in_shape) const {
  if (in_shape.size() != 4 || in_shape[1] != in_channels_) {
    throw std::invalid_argument("Conv2d: expected NCHW input with C=" +
                                std::to_string(in_channels_));
  }
  if (in_shape[2] + 2 * pad_ < kernel_ || in_shape[3] + 2 * pad_ < kernel_) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
}

std::vector<std::size_t> Conv2d::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  check_input(in_shape);
  const std::size_t out_h = (in_shape[2] + 2 * pad_ - kernel_) / stride_ + 1;
  const std::size_t out_w = (in_shape[3] + 2 * pad_ - kernel_) / stride_ + 1;
  return {in_shape[0], out_channels_, out_h, out_w};
}

void Conv2d::forward(const Tensor& in, Tensor& out, bool /*train*/) {
  check_input(in.shape());
  const std::size_t batch = in.dim(0), h = in.dim(2), w = in.dim(3);
  if (stride_ == 1) {
    ops::conv_forward({in_channels_, h, w, out_channels_, kernel_, pad_}, batch,
                      in.span(), w_, b_, out.span(), scratch_);
    return;
  }
  const std::size_t out_h = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const std::size_t out_w = (w + 2 * pad_ - kernel_) / stride_ + 1;
  const std::size_t k = in_channels_ * kernel_ * kernel_;
  const std::size_t cols_n = out_h * out_w;
  scratch_.resize(k * cols_n);

  const std::size_t in_stride = in_channels_ * h * w;
  const std::size_t out_stride = out_channels_ * cols_n;
  // Per-channel bias rides the GEMM epilogue (one row of C per channel).
  const ops::GemmEpilogue epilogue{
      .bias = b_, .bias_axis = ops::GemmEpilogue::BiasAxis::kRow};
  for (std::size_t s = 0; s < batch; ++s) {
    ops::im2col(in.span().subspan(s * in_stride, in_stride), in_channels_, h, w,
                kernel_, kernel_, stride_, pad_, scratch_);
    auto out_s = out.span().subspan(s * out_stride, out_stride);
    // out(s) = W(outC × k) · cols(k × cols_n)
    if (has_bias_) {
      ops::gemm_fused(w_, scratch_, out_s, out_channels_, k, cols_n,
                      epilogue);
    } else {
      ops::gemm(w_, scratch_, out_s, out_channels_, k, cols_n);
    }
  }
}

void Conv2d::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  const std::size_t batch = in.dim(0), h = in.dim(2), w = in.dim(3);
  const std::size_t out_h = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const std::size_t out_w = (w + 2 * pad_ - kernel_) / stride_ + 1;
  const std::size_t k = in_channels_ * kernel_ * kernel_;
  const std::size_t cols_n = out_h * out_w;
  const bool want_din = !din.empty();

  const std::size_t in_stride = in_channels_ * h * w;
  const std::size_t out_stride = out_channels_ * cols_n;
  if (has_bias_) {
    for (std::size_t s = 0; s < batch; ++s) {
      const float* dout_s = dout.data() + s * out_stride;
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const float* plane = dout_s + oc * cols_n;
        float acc = 0.0f;
        for (std::size_t i = 0; i < cols_n; ++i) acc += plane[i];
        db_[oc] += acc;
      }
    }
  }
  if (stride_ == 1) {
    const ops::ConvShape shape{in_channels_, h, w,
                               out_channels_, kernel_, pad_};
    ops::conv_weight_grad(shape, batch, in.span(), dout.span(), dw_, scratch_);
    if (want_din) {
      ops::conv_input_grad(shape, batch, w_, dout.span(), din.span(),
                           din_scratch_);
    }
    return;
  }

  // Persistent scratch: no per-call allocation, and none at all when the
  // input gradient is not wanted.
  scratch_.resize(k * cols_n);
  if (want_din) din_scratch_.resize(k * cols_n);
  din.fill(0.0f);
  for (std::size_t s = 0; s < batch; ++s) {
    auto in_s = in.span().subspan(s * in_stride, in_stride);
    auto dout_s = dout.span().subspan(s * out_stride, out_stride);
    // Recompute im2col (trades FLOPs for not caching per-sample columns).
    ops::im2col(in_s, in_channels_, h, w, kernel_, kernel_, stride_, pad_,
                scratch_);
    // dW(outC × k) += dout(outC × cols_n) · colsᵀ(cols_n × k)
    ops::gemm_a_bt_acc(dout_s, scratch_, dw_, out_channels_, cols_n, k);
    if (!want_din) continue;
    // dcols(k × cols_n) = Wᵀ(k × outC) · dout(outC × cols_n)
    std::fill(din_scratch_.begin(), din_scratch_.end(), 0.0f);
    ops::gemm_at_b_acc(w_, dout_s, din_scratch_, k, out_channels_, cols_n);
    ops::col2im(din_scratch_, in_channels_, h, w, kernel_, kernel_, stride_,
                pad_, din.span().subspan(s * in_stride, in_stride));
  }
}

}  // namespace saps::nn
