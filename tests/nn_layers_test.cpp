// Finite-difference gradient checks for every layer — the ground truth that
// the training substrate computes correct derivatives.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "conv_oracle.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saps::nn {
namespace {

/// Scalar objective over the layer output: f = Σ w_i · out_i with fixed
/// random weights; its analytic input/parameter gradients are checked
/// against central differences.
struct GradCheck {
  explicit GradCheck(Layer& layer, std::vector<std::size_t> in_shape,
                     std::uint64_t seed = 1234)
      : layer_(layer), in_shape_(std::move(in_shape)) {
    params_.assign(layer.param_count(), 0.0f);
    grads_.assign(layer.param_count(), 0.0f);
    buffers_.assign(layer.buffer_count(), 0.0f);
    layer.bind(params_, grads_, buffers_);
    Rng rng(seed);
    layer.init(rng);
    // Perturb params away from symmetric init values.
    for (auto& p : params_) {
      p += static_cast<float>(rng.next_normal() * 0.05);
    }

    in_ = Tensor(in_shape_);
    for (std::size_t i = 0; i < in_.numel(); ++i) {
      in_[i] = static_cast<float>(rng.next_normal());
    }
    const auto out_shape = layer.output_shape(in_shape_);
    out_ = Tensor(out_shape);
    dout_ = Tensor(out_shape);
    for (std::size_t i = 0; i < dout_.numel(); ++i) {
      dout_[i] = static_cast<float>(rng.next_normal());
    }
  }

  double objective() {
    layer_.forward(in_, out_, /*train=*/true);
    double f = 0.0;
    for (std::size_t i = 0; i < out_.numel(); ++i) {
      f += static_cast<double>(out_[i]) * dout_[i];
    }
    return f;
  }

  /// Returns max relative error between analytic and numeric gradients.
  double check_input_grad(double eps = 1e-3) {
    objective();
    Tensor din(in_.shape());
    std::fill(grads_.begin(), grads_.end(), 0.0f);
    layer_.backward(in_, dout_, din);

    double worst = 0.0;
    for (std::size_t i = 0; i < in_.numel(); ++i) {
      const float saved = in_[i];
      in_[i] = saved + static_cast<float>(eps);
      const double fp = objective();
      in_[i] = saved - static_cast<float>(eps);
      const double fm = objective();
      in_[i] = saved;
      const double numeric = (fp - fm) / (2 * eps);
      const double denom = std::max(1.0, std::abs(numeric));
      worst = std::max(worst, std::abs(numeric - din[i]) / denom);
    }
    return worst;
  }

  double check_param_grad(double eps = 1e-3) {
    objective();
    Tensor din(in_.shape());
    std::fill(grads_.begin(), grads_.end(), 0.0f);
    layer_.backward(in_, dout_, din);

    double worst = 0.0;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const float saved = params_[i];
      params_[i] = saved + static_cast<float>(eps);
      const double fp = objective();
      params_[i] = saved - static_cast<float>(eps);
      const double fm = objective();
      params_[i] = saved;
      const double numeric = (fp - fm) / (2 * eps);
      const double denom = std::max(1.0, std::abs(numeric));
      worst = std::max(worst, std::abs(numeric - grads_[i]) / denom);
    }
    return worst;
  }

  Layer& layer_;
  std::vector<std::size_t> in_shape_;
  std::vector<float> params_, grads_, buffers_;
  Tensor in_, out_, dout_;
};

TEST(Linear, GradCheck) {
  Linear layer(5, 4);
  GradCheck gc(layer, {3, 5});
  EXPECT_LT(gc.check_input_grad(), 2e-2);
  EXPECT_LT(gc.check_param_grad(), 2e-2);
}

TEST(Linear, RejectsBadShapes) {
  Linear layer(5, 4);
  EXPECT_THROW(layer.output_shape({3, 6}), std::invalid_argument);
  EXPECT_THROW(Linear(0, 4), std::invalid_argument);
}

TEST(Conv2d, GradCheckNoPad) {
  Conv2d layer(2, 3, 3, 1, 0);
  GradCheck gc(layer, {2, 2, 5, 5});
  EXPECT_LT(gc.check_input_grad(), 2e-2);
  EXPECT_LT(gc.check_param_grad(), 2e-2);
}

TEST(Conv2d, GradCheckPadStride) {
  Conv2d layer(1, 2, 3, 2, 1);
  GradCheck gc(layer, {2, 1, 6, 6});
  EXPECT_LT(gc.check_input_grad(), 2e-2);
  EXPECT_LT(gc.check_param_grad(), 2e-2);
}

TEST(Conv2d, OutputShape) {
  Conv2d layer(3, 16, 3, 1, 1);
  const auto s = layer.output_shape({4, 3, 32, 32});
  EXPECT_EQ(s, (std::vector<std::size_t>{4, 16, 32, 32}));
  Conv2d strided(3, 16, 3, 2, 1);
  const auto s2 = strided.output_shape({4, 3, 32, 32});
  EXPECT_EQ(s2, (std::vector<std::size_t>{4, 16, 16, 16}));
}

TEST(Conv2d, RejectsWrongChannels) {
  Conv2d layer(3, 8, 3);
  EXPECT_THROW(layer.output_shape({1, 4, 8, 8}), std::invalid_argument);
}

TEST(ReLU, GradCheck) {
  ReLU layer;
  GradCheck gc(layer, {4, 10});
  EXPECT_LT(gc.check_input_grad(), 2e-2);
}

TEST(ReLU, ZeroesNegatives) {
  ReLU layer;
  Tensor in({1, 4}, {-1.0f, 2.0f, -3.0f, 4.0f});
  Tensor out({1, 4});
  layer.forward(in, out, true);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten layer;
  EXPECT_EQ(layer.output_shape({2, 3, 4, 5}),
            (std::vector<std::size_t>{2, 60}));
  Tensor in({1, 2, 2, 1}, {1, 2, 3, 4});
  Tensor out({1, 4});
  layer.forward(in, out, true);
  EXPECT_FLOAT_EQ(out[3], 4.0f);
}

TEST(MaxPool2d, GradCheck) {
  MaxPool2d layer(2);
  GradCheck gc(layer, {2, 2, 4, 4});
  EXPECT_LT(gc.check_input_grad(), 2e-2);
}

TEST(MaxPool2d, SelectsMaximum) {
  MaxPool2d layer(2);
  Tensor in({1, 1, 2, 2}, {1, 5, 2, 3});
  Tensor out({1, 1, 1, 1});
  layer.forward(in, out, true);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// The window-generic max-pool loop, kept as the oracle for the 2×2 path:
// strict `>` from -inf in row-major window order, so the first maximum wins,
// a NaN is never chosen, and a window with nothing above -inf reports the
// plane's first element.
void maxpool_oracle(const Tensor& in, std::size_t window, Tensor& out,
                    std::vector<std::size_t>& argmax) {
  const std::size_t planes = in.dim(0) * in.dim(1), h = in.dim(2),
                    w = in.dim(3);
  const std::size_t oh = h / window, ow = w / window;
  argmax.assign(planes * oh * ow, 0);
  std::size_t oi = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = in.data() + p * h * w;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dy = 0; dy < window; ++dy) {
          for (std::size_t dx = 0; dx < window; ++dx) {
            const std::size_t idx = (y * window + dy) * w + (x * window + dx);
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        out[oi] = best;
        argmax[oi] = p * h * w + best_idx;
      }
    }
  }
}

TEST(MaxPool2d, TwoByTwoPathMatchesGenericLoopOnTiesInfAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Values drawn from a small pool, so windows hold ties (±0 among them),
  // -inf, NaN, and windows with nothing above -inf.
  const float pool[] = {1.0f, 1.0f, 0.0f, -0.0f, -2.0f, 3.0f, -inf, nan};
  MaxPool2d layer(2);
  // Both kernel backends: the AVX2 clone of the 2×2 path and its portable
  // twin.
  for (const auto be : {ops::GemmBackend::kAvx2, ops::GemmBackend::kPortable}) {
    if (!ops::gemm_backend_available(be)) continue;
    ops::set_gemm_backend(be);
    SCOPED_TRACE(be == ops::GemmBackend::kAvx2 ? "avx2" : "portable");
    // Output widths on both sides of the 4- and 8-wide vector lengths; an
    // odd extent leaves a trailing row and column out of every window.
    for (const std::size_t ow : {1, 3, 4, 7, 8, 9, 16, 17}) {
      for (const std::size_t odd : {0, 1}) {
        const std::size_t oh = 3, h = 2 * oh + odd, w = 2 * ow + odd;
        SCOPED_TRACE("ow=" + std::to_string(ow) +
                     " odd=" + std::to_string(odd));
        const std::vector<std::size_t> in_shape{2, 3, h, w};
        Tensor in(in_shape);
        Rng rng(77 + ow + odd);
        for (std::size_t i = 0; i < in.numel(); ++i) in[i] = pool[rng() % 8];
        // Planes 4 and 5 end in an all-NaN and an all -inf window: both
        // report their plane's first element, not their own first element
        // nor flat index 0.
        const std::size_t last = (2 * oh - 2) * w + 2 * ow - 2;
        for (const std::size_t d : {std::size_t{0}, std::size_t{1}, w, w + 1}) {
          in[4 * h * w + last + d] = nan;
          in[5 * h * w + last + d] = -inf;
        }

        const auto out_shape = layer.output_shape(in_shape);
        Tensor got(out_shape), want(out_shape);
        std::vector<std::size_t> argmax;
        layer.forward(in, got, true);
        maxpool_oracle(in, 2, want, argmax);
        EXPECT_TRUE(same_bits(got.data(), want.data(), got.numel()));
        const std::size_t windows = oh * ow;
        EXPECT_EQ(argmax[5 * windows - 1], 4 * h * w);
        EXPECT_EQ(argmax[6 * windows - 1], 5 * h * w);

        // argmax_ is observed through backward: each output's distinct
        // gradient lands on the input element it selected.
        Tensor dout(out_shape), din(in_shape), din_want(in_shape);
        for (std::size_t i = 0; i < dout.numel(); ++i) {
          dout[i] = static_cast<float>(i + 1);
        }
        layer.backward(in, dout, din);
        for (std::size_t i = 0; i < argmax.size(); ++i) {
          din_want[argmax[i]] += dout[i];
        }
        EXPECT_TRUE(same_bits(din.data(), din_want.data(), din.numel()));
      }
    }
  }
  ops::set_gemm_backend(ops::GemmBackend::kAuto);
}

TEST(GlobalAvgPool, GradCheck) {
  GlobalAvgPool layer;
  GradCheck gc(layer, {2, 3, 4, 4});
  EXPECT_LT(gc.check_input_grad(), 2e-2);
}

TEST(GlobalAvgPool, Averages) {
  GlobalAvgPool layer;
  Tensor in({1, 1, 2, 2}, {1, 2, 3, 6});
  Tensor out({1, 1});
  layer.forward(in, out, true);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(BatchNorm2d, GradCheck) {
  BatchNorm2d layer(3);
  GradCheck gc(layer, {4, 3, 3, 3});
  EXPECT_LT(gc.check_input_grad(), 3e-2);
  EXPECT_LT(gc.check_param_grad(), 3e-2);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d layer(1);
  std::vector<float> params(2), grads(2), buffers(2);
  layer.bind(params, grads, buffers);
  Rng rng(1);
  layer.init(rng);
  Tensor in({2, 1, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out(in.shape());
  layer.forward(in, out, true);
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) mean += out[i];
  mean /= static_cast<double>(out.numel());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    var += (out[i] - mean) * (out[i] - mean);
  }
  var /= static_cast<double>(out.numel());
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(BatchNorm2d, EvalBeforeTrainUsesRunningStats) {
  BatchNorm2d layer(1);
  std::vector<float> params(2), grads(2), buffers(2);
  layer.bind(params, grads, buffers);
  Rng rng(1);
  layer.init(rng);
  Tensor in({1, 1, 1, 2}, {2.0f, 4.0f});
  Tensor out(in.shape());
  layer.forward(in, out, false);  // running mean 0, var 1 → near-identity
  EXPECT_NEAR(out[0], 2.0f, 1e-3);
  EXPECT_NEAR(out[1], 4.0f, 1e-3);
}

TEST(ResidualBlock, GradCheckIdentitySkip) {
  ResidualBlock block(4, 4, 1);
  GradCheck gc(block, {2, 4, 4, 4});
  EXPECT_LT(gc.check_input_grad(), 3e-2);
  EXPECT_LT(gc.check_param_grad(), 3e-2);
}

TEST(ResidualBlock, GradCheckProjectionSkip) {
  ResidualBlock block(2, 4, 2);
  GradCheck gc(block, {2, 2, 6, 6});
  EXPECT_LT(gc.check_input_grad(), 3e-2);
  EXPECT_LT(gc.check_param_grad(), 3e-2);
}

TEST(ResidualBlock, OutputShape) {
  ResidualBlock block(16, 32, 2);
  EXPECT_EQ(block.output_shape({1, 16, 32, 32}),
            (std::vector<std::size_t>{1, 32, 16, 16}));
}

// An empty din means "input gradient not wanted" (Layer::backward): the
// layer skips that work, and its parameter gradients must come out exactly
// as in a backward that computes din.
void expect_empty_din_keeps_param_grads(Layer& layer,
                                        std::vector<std::size_t> in_shape) {
  GradCheck gc(layer, std::move(in_shape));
  gc.objective();  // training forward, as backward requires
  Tensor din(gc.in_.shape());
  layer.backward(gc.in_, gc.dout_, din);
  const std::vector<float> want = gc.grads_;
  std::fill(gc.grads_.begin(), gc.grads_.end(), 0.0f);
  Tensor unwanted;
  layer.backward(gc.in_, gc.dout_, unwanted);
  EXPECT_TRUE(unwanted.empty());
  ASSERT_EQ(gc.grads_.size(), want.size());
  EXPECT_TRUE(same_bits(gc.grads_.data(), want.data(), want.size()));
}

TEST(Linear, EmptyDinKeepsParameterGradients) {
  Linear layer(6, 5);
  expect_empty_din_keeps_param_grads(layer, {4, 6});
}

TEST(Conv2d, EmptyDinKeepsParameterGradients) {
  Conv2d same(3, 4, 3, 1, 1);
  expect_empty_din_keeps_param_grads(same, {2, 3, 6, 6});
  Conv2d strided(2, 3, 3, 2, 1, /*bias=*/false);
  expect_empty_din_keeps_param_grads(strided, {2, 2, 7, 5});
}

TEST(Conv2d, StrideOneRunsMatchIm2colGemmBitForBit) {
  // A stride-1 Conv2d takes the direct kernels.  Over a batch of 3, its
  // output, its weight and bias gradients (accumulated onto earlier ones)
  // and its input gradient must equal the im2col + GEMM path's bits, on both
  // backends: the tiny CNN's two convs, CIFAR-CNN's 5×5, a bias-free ResNet
  // conv, and odd widths and channel counts that leave tails everywhere.
  const ops::ConvShape shapes[] = {{3, 16, 16, 8, 3, 1}, {8, 8, 8, 16, 3, 1},
                                   {3, 12, 12, 20, 5, 2}, {16, 4, 4, 16, 3, 1},
                                   {5, 7, 9, 3, 3, 0},    {2, 9, 5, 11, 5, 4},
                                   {4, 6, 13, 6, 1, 0}};
  constexpr std::size_t kBatch = 3;
  for (const auto backend : {ops::GemmBackend::kPortable,
                             ops::GemmBackend::kAvx2}) {
    if (!ops::gemm_backend_available(backend)) continue;
    ops::set_gemm_backend(backend);
    Rng rng(43);
    for (const auto& s : shapes) {
      for (const bool bias : {true, false}) {
        SCOPED_TRACE(testing::PrintToString(std::array{
            s.channels, s.height, s.width, s.out_channels, s.kernel, s.pad,
            std::size_t{bias}, static_cast<std::size_t>(backend)}));
        const auto d = test_util::conv_dims(s);
        Conv2d layer(s.channels, s.out_channels, s.kernel, 1, s.pad, bias);
        const bool nonfinite = !bias;
        auto params = test_util::conv_test_values(rng, layer.param_count(),
                                                  nonfinite);
        auto grads = test_util::conv_test_values(rng, layer.param_count(),
                                                 nonfinite);
        const auto grads_before = grads;
        layer.bind(params, grads, {});
        const std::vector<std::size_t> in_shape{kBatch, s.channels, s.height,
                                                s.width};
        const auto x = test_util::conv_test_values(rng, kBatch * d.in_size,
                                                   nonfinite);
        const auto dy = test_util::conv_test_values(rng, kBatch * d.out_size,
                                                    nonfinite);
        Tensor in(in_shape, x), out(layer.output_shape(in_shape));
        Tensor dout(out.shape(), dy), din(in_shape);

        const std::size_t wsize = s.out_channels * d.taps;
        const std::vector<float> w(params.begin(), params.begin() + wsize);
        const std::vector<float> b(params.begin() + wsize, params.end());
        std::vector<float> out_want(out.numel());
        test_util::oracle_conv_forward(s, kBatch, x, w, b, out_want);
        layer.forward(in, out, /*train=*/true);
        EXPECT_TRUE(same_bits(out.data(), out_want.data(), out.numel()));

        std::vector<float> dw_want(grads_before.begin(),
                                   grads_before.begin() + wsize);
        test_util::oracle_conv_weight_grad(s, kBatch, x, dy, dw_want);
        std::vector<float> din_want(din.numel());
        test_util::oracle_conv_input_grad(s, kBatch, w, dy, din_want);
        layer.backward(in, dout, din);
        EXPECT_TRUE(same_bits(grads.data(), dw_want.data(), wsize));
        EXPECT_TRUE(same_bits(din.data(), din_want.data(), din.numel()));
        // The bias gradient keeps its per-sample plane sums.
        for (std::size_t oc = 0; bias && oc < s.out_channels; ++oc) {
          float db = grads_before[wsize + oc];
          for (std::size_t n = 0; n < kBatch; ++n) {
            float sum = 0.0f;
            for (std::size_t p = 0; p < d.pixels; ++p) {
              sum += dy[n * d.out_size + oc * d.pixels + p];
            }
            db += sum;
          }
          EXPECT_TRUE(same_bits(&grads[wsize + oc], &db, 1)) << "db " << oc;
        }
      }
    }
  }
  ops::set_gemm_backend(ops::GemmBackend::kAuto);
}

TEST(BatchNorm2d, EmptyDinKeepsParameterGradients) {
  BatchNorm2d layer(3);
  expect_empty_din_keeps_param_grads(layer, {4, 3, 3, 3});
}

TEST(ResidualBlock, EmptyDinKeepsParameterGradients) {
  ResidualBlock identity(4, 4, 1);
  expect_empty_din_keeps_param_grads(identity, {2, 4, 4, 4});
  ResidualBlock projection(2, 4, 2);
  expect_empty_din_keeps_param_grads(projection, {2, 2, 6, 6});
}

TEST(Layers, BindRejectsWrongSpanSize) {
  Linear layer(3, 2);
  std::vector<float> too_small(3), grads(3);
  EXPECT_THROW(layer.bind(too_small, grads, {}), std::invalid_argument);
}

}  // namespace
}  // namespace saps::nn
