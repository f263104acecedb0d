#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace saps::nn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim), out_dim_(out_dim) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("Linear: zero dimension");
  }
}

void Linear::bind(std::span<float> params, std::span<float> grads,
                  std::span<float> /*buffers*/) {
  if (params.size() != param_count() || grads.size() != param_count()) {
    throw std::invalid_argument("Linear::bind: span size mismatch");
  }
  w_ = params.subspan(0, in_dim_ * out_dim_);
  b_ = params.subspan(in_dim_ * out_dim_, out_dim_);
  dw_ = grads.subspan(0, in_dim_ * out_dim_);
  db_ = grads.subspan(in_dim_ * out_dim_, out_dim_);
}

void Linear::init(Rng& rng) {
  init_he_normal(w_, in_dim_, rng);
  for (auto& v : b_) v = 0.0f;
}

std::vector<std::size_t> Linear::output_shape(
    const std::vector<std::size_t>& in_shape) const {
  if (in_shape.size() != 2 || in_shape[1] != in_dim_) {
    throw std::invalid_argument("Linear: expected input (B," +
                                std::to_string(in_dim_) + ")");
  }
  return {in_shape[0], out_dim_};
}

void Linear::forward(const Tensor& in, Tensor& out, bool /*train*/) {
  const std::size_t batch = in.dim(0);
  // out(B×out) = in(B×in) · Wᵀ(out×in) + b, bias fused per output column.
  ops::gemm_a_bt_fused(in.span(), w_, out.span(), batch, in_dim_, out_dim_,
                       {.bias = b_,
                        .bias_axis = ops::GemmEpilogue::BiasAxis::kCol});
}

void Linear::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  const std::size_t batch = in.dim(0);
  // dW(out×in) += doutᵀ(out×B) · in(B×in)
  ops::gemm_at_b_acc(dout.span(), in.span(), dw_, out_dim_, batch, in_dim_);
  for (std::size_t i = 0; i < batch; ++i) {
    const float* row = dout.data() + i * out_dim_;
    for (std::size_t j = 0; j < out_dim_; ++j) db_[j] += row[j];
  }
  if (din.empty()) return;  // input gradient not wanted
  // din(B×in) = dout(B×out) · W(out×in)
  din.fill(0.0f);
  ops::gemm_acc(dout.span(), w_, din.span(), batch, out_dim_, in_dim_);
}

}  // namespace saps::nn
