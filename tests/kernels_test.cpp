// Kernel-equivalence suite for the blocked GEMM layer (tensor/gemm.cpp).
//
// The kernel layer documents an exact per-element contract — seed (0 or
// prior C), then one strictly k-ascending fma chain, then the fused
// epilogue — so every comparison here is BIT-EXACT equality against a naive
// reference implementing that contract directly: over shapes with tile
// tails (m, k, n not multiples of the 4×16 micro-tile), multi-panel k/m/n
// (crossing the cache-block sizes), fused epilogues vs separate ops, and
// the portable vs AVX2 backends.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saps::ops {
namespace {

struct Shape {
  std::size_t m, k, n;
};

// Tails in every dimension, micro-tile multiples, and shapes crossing the
// kMc=128 / kKc=256 / kNc=512 cache blocks.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {3, 5, 2},     {4, 16, 16},  {5, 17, 9},
    {8, 8, 8},    {16, 33, 24}, {17, 40, 31},  {31, 144, 20}, {129, 5, 40},
    {20, 300, 24}, {4, 9, 520}, {33, 520, 17},
};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_float() - 0.5f;
  return v;
}

// The documented per-element contract, implemented naively.
void ref_gemm(const float* a, std::size_t a_rs, std::size_t a_cs,
              const float* b, std::size_t b_rs, std::size_t b_cs, float* c,
              std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float s = accumulate ? c[i * n + j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        s = std::fma(a[i * a_rs + kk * a_cs], b[kk * b_rs + j * b_cs], s);
      }
      c[i * n + j] = s;
    }
  }
}

void expect_bit_equal(const std::vector<float>& got,
                      const std::vector<float>& want, const Shape& s) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "m=" << s.m << " k=" << s.k << " n=" << s.n
                               << " at " << i;
  }
}

TEST(BlockedGemm, MatchesReferenceOverTailShapes) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 11);
    auto b = random_vec(s.k * s.n, 13);
    std::vector<float> c(s.m * s.n, -7.0f);  // stale values must be ignored
    auto want = c;
    gemm(a, b, c, s.m, s.k, s.n);
    ref_gemm(a.data(), s.k, 1, b.data(), s.n, 1, want.data(), s.m, s.k, s.n,
             false);
    expect_bit_equal(c, want, s);
  }
}

TEST(BlockedGemm, AccumulateMatchesReference) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 17);
    auto b = random_vec(s.k * s.n, 19);
    auto c = random_vec(s.m * s.n, 23);
    auto want = c;
    gemm_acc(a, b, c, s.m, s.k, s.n);
    ref_gemm(a.data(), s.k, 1, b.data(), s.n, 1, want.data(), s.m, s.k, s.n,
             true);
    expect_bit_equal(c, want, s);
  }
}

TEST(BlockedGemm, AtBMatchesReference) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.k * s.m, 29);  // stored (k×m)
    auto b = random_vec(s.k * s.n, 31);
    auto c = random_vec(s.m * s.n, 37);
    auto want = c;
    gemm_at_b_acc(a, b, c, s.m, s.k, s.n);
    ref_gemm(a.data(), 1, s.m, b.data(), s.n, 1, want.data(), s.m, s.k, s.n,
             true);
    expect_bit_equal(c, want, s);
  }
}

TEST(BlockedGemm, ABtMatchesReference) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 41);
    auto b = random_vec(s.n * s.k, 43);  // stored (n×k)
    auto c = random_vec(s.m * s.n, 47);
    auto want = c;
    gemm_a_bt_acc(a, b, c, s.m, s.k, s.n);
    ref_gemm(a.data(), s.k, 1, b.data(), 1, s.k, want.data(), s.m, s.k, s.n,
             true);
    expect_bit_equal(c, want, s);
  }
}

// The fused epilogue must equal the unfused sequence exactly: gemm, then
// bias add, then relu as separate element passes.
TEST(FusedEpilogue, BiasRowReluMatchesSeparateOps) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 53);
    auto b = random_vec(s.k * s.n, 59);
    auto bias = random_vec(s.m, 61);
    std::vector<float> fused(s.m * s.n), want(s.m * s.n);
    gemm_fused(a, b, fused, s.m, s.k, s.n,
               {.bias = bias,
                .bias_axis = GemmEpilogue::BiasAxis::kRow,
                .relu = true});
    gemm(a, b, want, s.m, s.k, s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        float v = want[i * s.n + j] + bias[i];
        want[i * s.n + j] = v > 0.0f ? v : 0.0f;
      }
    }
    expect_bit_equal(fused, want, s);
  }
}

TEST(FusedEpilogue, BiasColMatchesSeparateOps) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 67);
    auto b = random_vec(s.k * s.n, 71);
    auto bias = random_vec(s.n, 73);
    std::vector<float> fused(s.m * s.n), want(s.m * s.n);
    gemm_fused(a, b, fused, s.m, s.k, s.n,
               {.bias = bias, .bias_axis = GemmEpilogue::BiasAxis::kCol});
    gemm(a, b, want, s.m, s.k, s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) want[i * s.n + j] += bias[j];
    }
    expect_bit_equal(fused, want, s);
  }
}

TEST(FusedEpilogue, ABtFusedMatchesAccPlusBias) {
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 79);
    auto b = random_vec(s.n * s.k, 83);
    auto bias = random_vec(s.n, 89);
    std::vector<float> fused(s.m * s.n), want(s.m * s.n, 0.0f);
    gemm_a_bt_fused(a, b, fused, s.m, s.k, s.n,
                    {.bias = bias, .bias_axis = GemmEpilogue::BiasAxis::kCol});
    gemm_a_bt_acc(a, b, want, s.m, s.k, s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) want[i * s.n + j] += bias[j];
    }
    expect_bit_equal(fused, want, s);
  }
}

TEST(FusedEpilogue, RejectsWrongBiasLength) {
  std::vector<float> a(6), b(8), c(12), bias(5);
  EXPECT_THROW(
      gemm_fused(a, b, c, 3, 2, 4,
                 {.bias = bias, .bias_axis = GemmEpilogue::BiasAxis::kRow}),
      std::invalid_argument);
  EXPECT_THROW(
      gemm_fused(a, b, c, 3, 2, 4,
                 {.bias = bias, .bias_axis = GemmEpilogue::BiasAxis::kCol}),
      std::invalid_argument);
}

TEST(BlockedGemm, KZeroZeroesOrPreservesC) {
  std::vector<float> a, b;
  std::vector<float> c(6, 3.5f);
  gemm(a, b, c, 2, 0, 3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);

  std::vector<float> kept(6, 2.5f);
  gemm_acc(a, b, kept, 2, 0, 3);
  for (const float v : kept) EXPECT_EQ(v, 2.5f);

  std::vector<float> bias = {1.0f, -2.0f, 3.0f};
  std::vector<float> fused(6, 9.0f);
  gemm_fused(a, b, fused, 2, 0, 3,
             {.bias = bias,
              .bias_axis = GemmEpilogue::BiasAxis::kCol,
              .relu = true});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(fused[i * 3 + 0], 1.0f);
    EXPECT_EQ(fused[i * 3 + 1], 0.0f);  // relu(-2)
    EXPECT_EQ(fused[i * 3 + 2], 3.0f);
  }
}

// Runtime dispatch must never change results: the portable std::fma path
// and the AVX2 intrinsics path are bit-identical.
TEST(GemmBackend, PortableAndAvx2AreBitIdentical) {
  ASSERT_NE(gemm_backend(), GemmBackend::kAuto);  // always resolved
  if (!gemm_backend_available(GemmBackend::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  for (const auto& s : kShapes) {
    auto a = random_vec(s.m * s.k, 97);
    auto b = random_vec(s.k * s.n, 101);
    auto bias = random_vec(s.m, 103);
    const GemmEpilogue ep{.bias = bias,
                          .bias_axis = GemmEpilogue::BiasAxis::kRow,
                          .relu = true};
    std::vector<float> c_avx2(s.m * s.n), c_portable(s.m * s.n);
    set_gemm_backend(GemmBackend::kAvx2);
    gemm_fused(a, b, c_avx2, s.m, s.k, s.n, ep);
    set_gemm_backend(GemmBackend::kPortable);
    gemm_fused(a, b, c_portable, s.m, s.k, s.n, ep);
    set_gemm_backend(GemmBackend::kAuto);
    expect_bit_equal(c_avx2, c_portable, s);
  }
}

TEST(GemmBackend, RejectsUnavailableBackend) {
  if (gemm_backend_available(GemmBackend::kAvx2)) {
    GTEST_SKIP() << "all backends available on this CPU";
  }
  EXPECT_THROW(set_gemm_backend(GemmBackend::kAvx2), std::invalid_argument);
}

}  // namespace
}  // namespace saps::ops
