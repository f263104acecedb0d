#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "compress/quantize.hpp"
#include "net/wire.hpp"
#include "tensor/ops.hpp"

namespace saps::compress {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_float() - 0.5f;
  return v;
}

TEST(Qsgd, DecodePreservesSignsAndZeros) {
  Rng rng(1);
  const std::vector<float> x = {1.0f, -2.0f, 0.0f, 4.0f};
  const auto e = qsgd_encode(x, 8, rng);
  const auto back = qsgd_decode(e);
  ASSERT_EQ(back.size(), x.size());
  EXPECT_FLOAT_EQ(back[2], 0.0f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0) {
      EXPECT_GE(back[i], 0.0f);
    }
    if (x[i] < 0) {
      EXPECT_LE(back[i], 0.0f);
    }
  }
}

TEST(Qsgd, UnbiasedInExpectation) {
  Rng rng(7);
  const std::vector<float> x = {0.3f, -0.7f, 0.05f, 1.1f, -0.01f};
  std::vector<double> mean(x.size(), 0.0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const auto back = qsgd_decode(qsgd_encode(x, 4, rng));
    for (std::size_t i = 0; i < x.size(); ++i) mean[i] += back[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(mean[i] / trials, x[i], 0.02) << "coord " << i;
  }
}

TEST(Qsgd, ZeroVectorStaysZero) {
  Rng rng(3);
  const std::vector<float> x(16, 0.0f);
  const auto back = qsgd_decode(qsgd_encode(x, 4, rng));
  for (const auto v : back) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Qsgd, WireBytesBelowDense) {
  Rng rng(5);
  std::vector<float> x(10000, 1.0f);
  const auto e = qsgd_encode(x, 4, rng);  // 9 symbols → 4 bits per coord
  const net::QuantGradMsg msg{.levels = e.levels, .quantized = e.quantized};
  EXPECT_LT(msg.wire_bytes(), 4.0 * 10000 / 4);  // ≥ 8x smaller than fp32
}

TEST(Qsgd, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(qsgd_encode({}, 4, rng), std::invalid_argument);
  std::vector<float> x = {1.0f};
  EXPECT_THROW(qsgd_encode(x, 0, rng), std::invalid_argument);
}

TEST(Qsgd, IntoOverloadsMatchReturningOverloads) {
  // Same rng seed → same draw stream → identical encode; decode is pure.
  const auto x = random_vec(1003, 21);  // odd size exercises the SIMD tails
  Rng r1(77), r2(77);
  const auto want = qsgd_encode(x, 8, r1);
  QsgdEncoded got;
  qsgd_encode(x, 8, r2, got);
  EXPECT_EQ(got.norm, want.norm);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.quantized, want.quantized);
  std::vector<float> back;
  qsgd_decode(got, back);
  EXPECT_EQ(back, qsgd_decode(want));
}

TEST(Qsgd, BackendsProduceBitIdenticalEncodeAndDecode) {
  if (!ops::gemm_backend_available(ops::GemmBackend::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  for (const std::size_t n : {4u, 17u, 1024u, 4099u}) {
    const auto x = random_vec(n, n);
    for (const std::uint8_t levels : {1, 4, 127}) {
      Rng r1(5), r2(5);
      ops::set_gemm_backend(ops::GemmBackend::kAvx2);
      const auto a = qsgd_encode(x, levels, r1);
      const auto da = qsgd_decode(a);
      ops::set_gemm_backend(ops::GemmBackend::kPortable);
      const auto p = qsgd_encode(x, levels, r2);
      const auto dp = qsgd_decode(p);
      ops::set_gemm_backend(ops::GemmBackend::kAuto);
      EXPECT_EQ(a.norm, p.norm) << "n=" << n;
      ASSERT_EQ(a.quantized, p.quantized)
          << "n=" << n << " levels=" << int(levels);
      ASSERT_EQ(da, dp) << "n=" << n << " levels=" << int(levels);
    }
  }
}

TEST(PackedLevels, RoundTripsAndMatchesNaivePacker) {
  for (const std::size_t n : {1u, 7u, 16u, 137u, 4096u}) {
    for (const std::uint8_t levels : {1, 3, 4, 15, 127}) {
      const std::size_t bits = level_bits(levels);
      Rng rng(n * 31 + levels);
      std::vector<std::int8_t> q(n);
      for (auto& v : q) {
        v = static_cast<std::int8_t>(
            static_cast<int>(rng() % (2 * levels + 1)) - levels);
      }
      // Naive LSB-first reference stream.
      std::vector<std::uint8_t> want;
      std::uint32_t acc = 0;
      std::size_t filled = 0;
      for (const std::int8_t v : q) {
        acc |= static_cast<std::uint32_t>(v + levels) << filled;
        filled += bits;
        while (filled >= 8) {
          want.push_back(static_cast<std::uint8_t>(acc & 0xFF));
          acc >>= 8;
          filled -= 8;
        }
      }
      if (filled > 0) want.push_back(static_cast<std::uint8_t>(acc & 0xFF));

      std::vector<std::uint8_t> got;
      pack_levels(q, levels, got);
      ASSERT_EQ(got, want) << "n=" << n << " levels=" << int(levels);
      EXPECT_EQ(got.size(), packed_bytes(n, levels));

      std::vector<std::int8_t> back(n);
      unpack_levels(got, levels, back);
      ASSERT_EQ(back, q) << "n=" << n << " levels=" << int(levels);
    }
  }
}

TEST(PackedLevels, BackendsProduceByteIdenticalStreams) {
  if (!ops::gemm_backend_available(ops::GemmBackend::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  const std::uint8_t levels = 7;  // 4 bits
  Rng rng(97);
  std::vector<std::int8_t> q(2053);
  for (auto& v : q) {
    v = static_cast<std::int8_t>(static_cast<int>(rng() % 15) - 7);
  }
  std::vector<std::uint8_t> sa, sp;
  ops::set_gemm_backend(ops::GemmBackend::kAvx2);
  pack_levels(q, levels, sa);
  ops::set_gemm_backend(ops::GemmBackend::kPortable);
  pack_levels(q, levels, sp);
  ASSERT_EQ(sa, sp);
  std::vector<std::int8_t> ba(q.size()), bp(q.size());
  unpack_levels(sp, levels, bp);
  ops::set_gemm_backend(ops::GemmBackend::kAvx2);
  unpack_levels(sa, levels, ba);
  ops::set_gemm_backend(ops::GemmBackend::kAuto);
  EXPECT_EQ(ba, q);
  EXPECT_EQ(bp, q);
}

TEST(PackedLevels, NineBitLevelsUseThePortablePathCorrectly) {
  // levels >= 128 → 9 bits per code: beyond the SIMD byte-per-code paths,
  // must still round-trip through the u64 accumulator.
  const std::uint8_t levels = 200;
  EXPECT_EQ(level_bits(levels), 9u);
  std::vector<std::int8_t> q = {-128, 127, 0, -1, 1, 100, -100};
  std::vector<std::uint8_t> bytes;
  pack_levels(q, levels, bytes);
  EXPECT_EQ(bytes.size(), packed_bytes(q.size(), levels));
  std::vector<std::int8_t> back(q.size());
  unpack_levels(bytes, levels, back);
  EXPECT_EQ(back, q);
}

TEST(PackedLevels, AppendsToExistingBytes) {
  const std::vector<std::int8_t> q = {1, -1, 0, 2};
  std::vector<std::uint8_t> bytes = {0xAB, 0xCD};
  pack_levels(q, 2, bytes);
  ASSERT_EQ(bytes.size(), 2 + packed_bytes(q.size(), 2));
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0xCD);
  std::vector<std::int8_t> back(q.size());
  unpack_levels(std::span<const std::uint8_t>(bytes).subspan(2), 2, back);
  EXPECT_EQ(back, q);
}

TEST(PackedLevels, RejectsBadInput) {
  const std::vector<std::int8_t> over = {5};
  std::vector<std::uint8_t> bytes;
  EXPECT_THROW(pack_levels(over, 4, bytes), std::invalid_argument);

  // 17 codes force both the SIMD 16-wide block and the scalar tail to
  // validate.
  std::vector<std::int8_t> many(17, 0);
  many[3] = 9;
  bytes.clear();
  EXPECT_THROW(pack_levels(many, 4, bytes), std::invalid_argument);

  std::vector<std::int8_t> out(4);
  const std::vector<std::uint8_t> short_stream = {0x00};
  EXPECT_THROW(unpack_levels(short_stream, 4, out), std::out_of_range);

  // An out-of-range CODE (offset > 2s) must be rejected on unpack: 4 bits
  // per code at levels=4 admits codes 9..15.
  const std::vector<std::uint8_t> bad_code = {0xFF, 0xFF};
  std::vector<std::int8_t> out2(2);
  EXPECT_THROW(unpack_levels(bad_code, 4, out2), std::invalid_argument);
}

}  // namespace
}  // namespace saps::compress
