#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <tuple>
#include <vector>

#include "conv_oracle.hpp"
#include "util/rng.hpp"

namespace saps {
namespace {

TEST(Tensor, ShapeAndNumel) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_THROW((void)t.dim(3), std::out_of_range);
}

TEST(Tensor, RejectsZeroDimension) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
}

TEST(Tensor, RejectsDataShapeMismatch) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesNumel) {
  Tensor t({2, 6});
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
}

TEST(Tensor, FillAndAccess) {
  Tensor t({2, 2});
  t.fill(3.0f);
  EXPECT_FLOAT_EQ(t.at2(1, 1), 3.0f);
  t.at2(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(t[1], 7.0f);
}

void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, std::size_t m, std::size_t k,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * k + kk] * b[kk * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

class GemmTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(derive_seed(777, m, k, n));
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
  for (auto& v : a) v = rng.next_float() - 0.5f;
  for (auto& v : b) v = rng.next_float() - 0.5f;
  ops::gemm(a, b, c, m, k, n);
  naive_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST_P(GemmTest, TransposedVariantsMatchNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(derive_seed(778, m, k, n));
  // A(k×m), B(k×n): C += AᵀB
  std::vector<float> at(k * m), b(k * n), c(m * n, 0.0f), ref(m * n, 0.0f);
  for (auto& v : at) v = rng.next_float() - 0.5f;
  for (auto& v : b) v = rng.next_float() - 0.5f;
  ops::gemm_at_b_acc(at, b, c, m, k, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        ref[i * n + j] += at[kk * m + i] * b[kk * n + j];
      }
    }
  }
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);

  // A(m×k), B(n×k): C += ABᵀ
  std::vector<float> a(m * k), bt(n * k);
  for (auto& v : a) v = rng.next_float() - 0.5f;
  for (auto& v : bt) v = rng.next_float() - 0.5f;
  std::fill(c.begin(), c.end(), 0.0f);
  std::fill(ref.begin(), ref.end(), 0.0f);
  ops::gemm_a_bt_acc(a, bt, c, m, k, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        ref[i * n + j] += a[i * k + kk] * bt[j * k + kk];
      }
    }
  }
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 65, 17), std::make_tuple(1, 64, 1),
                      std::make_tuple(64, 1, 64)));

TEST(Ops, GemmAccAccumulates) {
  std::vector<float> a = {1, 0, 0, 1};  // 2x2 identity
  std::vector<float> b = {1, 2, 3, 4};
  std::vector<float> c = {10, 10, 10, 10};
  ops::gemm_acc(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Im2col, IdentityKernelNoPad) {
  // 1 channel, 2x2 image, 1x1 kernel → cols == image.
  std::vector<float> img = {1, 2, 3, 4}, cols(4);
  ops::im2col(img, 1, 2, 2, 1, 1, 1, 0, cols);
  EXPECT_EQ(cols, img);
}

TEST(Im2col, KnownLayout3x3) {
  // 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad → 4 rows × 4 cols.
  std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(4 * 4);
  ops::im2col(img, 1, 3, 3, 2, 2, 1, 0, cols);
  // Row 0 = top-left of each window: 1 2 4 5
  EXPECT_FLOAT_EQ(cols[0], 1);
  EXPECT_FLOAT_EQ(cols[1], 2);
  EXPECT_FLOAT_EQ(cols[2], 4);
  EXPECT_FLOAT_EQ(cols[3], 5);
  // Row 3 = bottom-right of each window: 5 6 8 9
  EXPECT_FLOAT_EQ(cols[12], 5);
  EXPECT_FLOAT_EQ(cols[15], 9);
}

TEST(Im2col, PaddingProducesZeros) {
  std::vector<float> img = {1, 2, 3, 4};
  const std::size_t out = 3 * 3;  // 2x2 img, 2x2 kernel, pad 1, stride 1
  std::vector<float> cols(4 * out);
  ops::im2col(img, 1, 2, 2, 2, 2, 1, 1, cols);
  EXPECT_FLOAT_EQ(cols[0], 0.0f);  // top-left window's first element is pad
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes the conv backward correct.
  Rng rng(99);
  const std::size_t C = 2, H = 5, W = 4, K = 3, S = 1, P = 1;
  const std::size_t out_h = (H + 2 * P - K) / S + 1;
  const std::size_t out_w = (W + 2 * P - K) / S + 1;
  std::vector<float> x(C * H * W), y(C * K * K * out_h * out_w);
  for (auto& v : x) v = rng.next_float() - 0.5f;
  for (auto& v : y) v = rng.next_float() - 0.5f;

  std::vector<float> cols(y.size());
  ops::im2col(x, C, H, W, K, K, S, P, cols);
  std::vector<float> back(x.size(), 0.0f);
  ops::col2im(y, C, H, W, K, K, S, P, back);

  const auto inner = [](const std::vector<float>& a,
                        const std::vector<float>& b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return acc;
  };
  EXPECT_NEAR(inner(cols, y), inner(x, back), 1e-3);
}

// The per-element loops im2col and col2im were before they moved to
// per-tap runs, kept as the oracle the run kernels must match bit for bit.
void im2col_oracle(const std::vector<float>& img, std::size_t channels,
                   std::size_t height, std::size_t width, std::size_t kernel,
                   std::size_t stride, std::size_t pad,
                   std::vector<float>& cols) {
  const std::size_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kernel) / stride + 1;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < kernel; ++kh) {
      for (std::size_t kw = 0; kw < kernel; ++kw, ++row) {
        float* dst = cols.data() + row * out_h * out_w;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const std::ptrdiff_t ih =
              static_cast<std::ptrdiff_t>(oh * stride + kh) -
              static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * stride + kw) -
                static_cast<std::ptrdiff_t>(pad);
            const bool inside =
                ih >= 0 && ih < static_cast<std::ptrdiff_t>(height) &&
                iw >= 0 && iw < static_cast<std::ptrdiff_t>(width);
            dst[oh * out_w + ow] =
                inside
                    ? img[(c * height + static_cast<std::size_t>(ih)) * width +
                          static_cast<std::size_t>(iw)]
                    : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_oracle(const std::vector<float>& cols, std::size_t channels,
                   std::size_t height, std::size_t width, std::size_t kernel,
                   std::size_t stride, std::size_t pad,
                   std::vector<float>& img_grad) {
  const std::size_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kernel) / stride + 1;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < kernel; ++kh) {
      for (std::size_t kw = 0; kw < kernel; ++kw, ++row) {
        const float* src = cols.data() + row * out_h * out_w;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const std::ptrdiff_t ih =
              static_cast<std::ptrdiff_t>(oh * stride + kh) -
              static_cast<std::ptrdiff_t>(pad);
          if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(height)) continue;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * stride + kw) -
                static_cast<std::ptrdiff_t>(pad);
            if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(width)) continue;
            img_grad[(c * height + static_cast<std::size_t>(ih)) * width +
                     static_cast<std::size_t>(iw)] += src[oh * out_w + ow];
          }
        }
      }
    }
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Im2col, RunKernelsMatchPerElementOracleBitForBit) {
  // Every {C, H, W, K, stride, pad} below, including "same" stride-1
  // shapes, pad >= H (taps that never touch the image), and strided and 1x1
  // shapes.  Buffers are sized exactly,
  // so an overrun shows under ASan.  col2im accumulates into a gradient that
  // already holds values of mixed magnitude, so any change in a pixel's
  // accumulation order changes its bits.
  std::vector<std::array<std::size_t, 6>> shapes;
  for (const std::size_t c : {1, 3}) {
    for (const std::size_t h : {1, 2, 5, 8, 9}) {
      for (const std::size_t w : {1, 4, 7, 16}) {
        for (const std::size_t k : {1, 2, 3, 5}) {
          for (const std::size_t stride : {1, 2, 3}) {
            for (const std::size_t pad : {0, 1, 2, 3}) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              shapes.push_back({c, h, w, k, stride, pad});
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(shapes.size(), 1656u);

  Rng rng(2024);
  const auto draw = [&](std::vector<float>& v) {
    for (auto& x : v) {
      x = static_cast<float>(rng.next_normal() *
                             static_cast<double>(1u << (rng() % 12)));
    }
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(testing::PrintToString(shape));
    const auto [c, h, w, k, stride, pad] = shape;
    const std::size_t out_h = (h + 2 * pad - k) / stride + 1;
    const std::size_t out_w = (w + 2 * pad - k) / stride + 1;
    std::vector<float> img(c * h * w);
    std::vector<float> cols(c * k * k * out_h * out_w);
    draw(img);
    std::vector<float> want(cols.size(), -1.0f);
    std::vector<float> got(cols.size(), -2.0f);
    im2col_oracle(img, c, h, w, k, stride, pad, want);
    ops::im2col(img, c, h, w, k, k, stride, pad, got);
    EXPECT_TRUE(same_bits(got, want)) << "im2col";

    draw(cols);
    std::vector<float> grad_want(img.size());
    draw(grad_want);
    std::vector<float> grad_got = grad_want;
    col2im_oracle(cols, c, h, w, k, stride, pad, grad_want);
    ops::col2im(cols, c, h, w, k, k, stride, pad, grad_got);
    EXPECT_TRUE(same_bits(grad_got, grad_want)) << "col2im";
  }
}

// Every stride-1 convolution over the sets below with a non-empty output:
// C ∈ {1, 3, 8}, H, W ∈ {1, 3, 4, 7, 8, 9, 12, 16, 17} (every pair at
// C = 1, square planes at C = 3 and 8 to bound the sanitizer build's run
// time), K ∈ {1, 3, 5} and each pad in [0, K−1].  The output channels
// cycle through {1, 3, 8, 16, 20}, so each count meets every width and
// kernel, and every fourth shape draws ±inf and NaN as well as ±0 and
// denormals.
struct ConvCase {
  ops::ConvShape shape;
  bool nonfinite;
};

std::vector<ConvCase> direct_conv_cases() {
  std::vector<ConvCase> cases;
  const std::size_t extents[] = {1, 3, 4, 7, 8, 9, 12, 16, 17};
  const std::size_t out_channels[] = {1, 3, 8, 16, 20};
  for (const std::size_t c : {1, 3, 8}) {
    for (const std::size_t h : extents) {
      for (const std::size_t w : extents) {
        if (c > 1 && h != w) continue;
        for (const std::size_t k : {1, 3, 5}) {
          for (std::size_t pad = 0; pad < k; ++pad) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            const std::size_t oc = out_channels[cases.size() % 5];
            cases.push_back({{c, h, w, oc, k, pad}, cases.size() % 4 == 0});
          }
        }
      }
    }
  }
  return cases;
}

constexpr std::size_t kConvBatch = 2;

// One case's shape and sizes, and its value source.
struct ConvRun {
  ops::ConvShape shape;
  test_util::ConvDims dims;
  bool nonfinite;
  Rng& rng;
  [[nodiscard]] std::vector<float> values(std::size_t n) const {
    return test_util::conv_test_values(rng, n, nonfinite);
  }
};

// Runs `check` over every case on each backend this CPU has, stopping at
// the first failure, then restores the default backend.
template <typename F>
void for_each_conv_case(std::uint64_t seed, F&& check) {
  const auto cases = direct_conv_cases();
  for (const auto backend :
       {ops::GemmBackend::kPortable, ops::GemmBackend::kAvx2}) {
    if (!ops::gemm_backend_available(backend)) continue;
    SCOPED_TRACE(backend == ops::GemmBackend::kAvx2 ? "avx2" : "portable");
    ops::set_gemm_backend(backend);
    Rng rng(seed);
    std::vector<float> scratch;
    for (const auto& [shape, nonfinite] : cases) {
      SCOPED_TRACE(testing::PrintToString(
          std::array{shape.channels, shape.height, shape.width,
                     shape.out_channels, shape.kernel, shape.pad}));
      check(ConvRun{shape, test_util::conv_dims(shape), nonfinite, rng},
            scratch);
      if (testing::Test::HasFailure()) break;
    }
  }
  ops::set_gemm_backend(ops::GemmBackend::kAuto);
}

TEST(ConvDirect, ForwardMatchesIm2colGemmBitForBit) {
  EXPECT_EQ(direct_conv_cases().size(), 802u);
  for_each_conv_case(31, [](const ConvRun& r, std::vector<float>& scratch) {
    const auto in = r.values(kConvBatch * r.dims.in_size);
    const auto w = r.values(r.shape.out_channels * r.dims.taps);
    auto bias = r.values(r.shape.out_channels);
    if (r.rng() % 2 == 0) bias.clear();
    std::vector<float> want(kConvBatch * r.dims.out_size, -1.0f);
    std::vector<float> got(want.size(), -2.0f);
    test_util::oracle_conv_forward(r.shape, kConvBatch, in, w, bias, want);
    ops::conv_forward(r.shape, kConvBatch, in, w, bias, got, scratch);
    EXPECT_TRUE(same_bits(got, want));
  });
}

TEST(ConvDirect, WeightGradAccumulatesLikeIm2colGemmBitForBit) {
  for_each_conv_case(37, [](const ConvRun& r, std::vector<float>& scratch) {
    const auto in = r.values(kConvBatch * r.dims.in_size);
    const auto dout = r.values(kConvBatch * r.dims.out_size);
    // dW already holds a gradient: both paths must seed from it.
    auto want = r.values(r.shape.out_channels * r.dims.taps);
    auto got = want;
    test_util::oracle_conv_weight_grad(r.shape, kConvBatch, in, dout, want);
    ops::conv_weight_grad(r.shape, kConvBatch, in, dout, got, scratch);
    EXPECT_TRUE(same_bits(got, want));
  });
}

TEST(ConvDirect, InputGradMatchesGemmCol2imBitForBit) {
  for_each_conv_case(41, [](const ConvRun& r, std::vector<float>& scratch) {
    const auto w = r.values(r.shape.out_channels * r.dims.taps);
    const auto dout = r.values(kConvBatch * r.dims.out_size);
    std::vector<float> want(kConvBatch * r.dims.in_size);
    // The direct kernel overwrites din, whatever it held.
    auto got = r.values(want.size());
    test_util::oracle_conv_input_grad(r.shape, kConvBatch, w, dout, want);
    ops::conv_input_grad(r.shape, kConvBatch, w, dout, got, scratch);
    EXPECT_TRUE(same_bits(got, want));
  });
}

TEST(ConvDirect, RejectsMismatchedSpans) {
  const ops::ConvShape shape{2, 4, 4, 3, 3, 1};
  std::vector<float> in(2 * 16), w(3 * 18), out(3 * 16), scratch;
  EXPECT_NO_THROW(ops::conv_forward(shape, 1, in, w, {}, out, scratch));
  EXPECT_THROW(ops::conv_forward(shape, 2, in, w, {}, out, scratch),
               std::invalid_argument);
  EXPECT_THROW(ops::conv_forward({2, 4, 4, 3, 7, 1}, 1, in, w, {}, out,
                                 scratch),
               std::invalid_argument);
  EXPECT_THROW(ops::conv_input_grad(shape, 1, w, out, out, scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace saps
