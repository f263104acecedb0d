#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "compress/mask.hpp"
#include "compress/topk.hpp"
#include "net/wire.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saps::compress {
namespace {

TEST(Mask, IdenticalAcrossWorkersForSameSeed) {
  // The protocol's core property: every worker regenerates the same mask
  // from the coordinator's broadcast seed (Section II-B).
  const auto a = bernoulli_mask(12345, 10000, 100.0);
  const auto b = bernoulli_mask(12345, 10000, 100.0);
  EXPECT_EQ(a, b);
}

TEST(Mask, DifferentSeedsDiffer) {
  const auto a = bernoulli_mask(1, 10000, 10.0);
  const auto b = bernoulli_mask(2, 10000, 10.0);
  EXPECT_NE(a, b);
}

TEST(Mask, RejectsBadArguments) {
  EXPECT_THROW(bernoulli_mask(1, 0, 10.0), std::invalid_argument);
  EXPECT_THROW(bernoulli_mask(1, 10, 0.5), std::invalid_argument);
}

class MaskRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(MaskRatioTest, DensityMatchesOneOverC) {
  const double c = GetParam();
  const std::size_t n = 200000;
  const auto mask =
      bernoulli_mask(derive_seed(7, static_cast<uint64_t>(c)), n, c);
  const double density = static_cast<double>(mask_popcount(mask)) / n;
  EXPECT_NEAR(density, 1.0 / c, 3.0 * std::sqrt((1.0 / c) / n) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Ratios, MaskRatioTest,
                         ::testing::Values(1.0, 2.0, 4.0, 10.0, 100.0, 1000.0));

TEST(Mask, ExtractThenAverageRoundTrip) {
  std::vector<float> x = {1, 2, 3, 4, 5, 6};
  const std::vector<std::uint8_t> mask = {1, 0, 1, 0, 0, 1};
  const auto vals = extract_masked(x, mask);
  EXPECT_EQ(vals, (std::vector<float>{1, 3, 6}));

  std::vector<float> peer_vals = {3, 5, 10};
  average_masked_inplace(x, mask, peer_vals);
  EXPECT_FLOAT_EQ(x[0], 2.0f);   // (1+3)/2
  EXPECT_FLOAT_EQ(x[1], 2.0f);   // untouched
  EXPECT_FLOAT_EQ(x[2], 4.0f);   // (3+5)/2
  EXPECT_FLOAT_EQ(x[5], 8.0f);   // (6+10)/2
}

TEST(Mask, PairwiseAverageIsSymmetric) {
  // Both ends of an exchange must land on the same masked values (Eq. 7).
  Rng rng(3);
  std::vector<float> xi(500), xj(500);
  for (auto& v : xi) v = rng.next_float();
  for (auto& v : xj) v = rng.next_float();
  const auto mask = bernoulli_mask(55, 500, 5.0);
  const auto vi = extract_masked(xi, mask);
  const auto vj = extract_masked(xj, mask);
  average_masked_inplace(xi, mask, vj);
  average_masked_inplace(xj, mask, vi);
  for (std::size_t k = 0; k < 500; ++k) {
    if (mask[k]) {
      EXPECT_FLOAT_EQ(xi[k], xj[k]);
    }
  }
}

TEST(Mask, AverageRejectsWrongValueCount) {
  std::vector<float> x = {1, 2};
  const std::vector<std::uint8_t> mask = {1, 1};
  std::vector<float> vals = {1};
  EXPECT_THROW(average_masked_inplace(x, mask, vals), std::invalid_argument);
  std::vector<float> too_many = {1, 2, 3};
  EXPECT_THROW(average_masked_inplace(x, mask, too_many),
               std::invalid_argument);
}

TEST(Mask, WireBytesFormula) {
  // The masked model's charge: a 16-byte header plus 4 bytes per value.
  net::MaskedModelMsg msg;
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 16.0);
  msg.values.assign(100, 1.0f);
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 416.0);
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> x = {0.1f, -5.0f, 3.0f, 0.2f, -0.3f, 4.0f};
  const auto s = top_k(x, 2.0);  // k = ceil(6/2) = 3
  EXPECT_EQ(s.nnz(), 3u);
  EXPECT_EQ(s.indices, (std::vector<std::uint32_t>{1, 2, 5}));
  EXPECT_FLOAT_EQ(s.values[0], -5.0f);
}

TEST(TopK, AlwaysKeepsAtLeastOne) {
  const std::vector<float> x = {1.0f, 2.0f};
  const auto s = top_k(x, 1000.0);
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.indices[0], 1u);
}

TEST(TopK, WireBytes) {
  // A top-k selection ships as a sparse delta: 16 + 8 bytes per entry.
  const std::vector<float> x = {1, 2, 3, 4};
  const auto s = top_k(x, 2.0);
  const net::SparseDeltaMsg msg{.indices = s.indices, .values = s.values};
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 16.0 + 8.0 * 2);
}

// --- exact top-k selection --------------------------------------------------
//
// The contract both selection strategies share at every n: the first k of a
// stable sort by |x| key (the IEEE-754 bits with the sign cleared)
// descending, so ties go to the lower index, emitted in ascending index
// order with the input's value bits.  The key ranks NaN above +inf above
// every finite value, and orders finite values exactly like fabs.

std::uint32_t key_of(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits & 0x7FFFFFFFu;
}

float from_bits(std::uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

enum class Input {
  kGaussian,
  kManyTies,
  kSpecials,
  kSpecialsInGaussian,
  kAllEqual,
  kDenormals,
};

const char* input_name(Input kind) {
  switch (kind) {
    case Input::kGaussian: return "gaussian";
    case Input::kManyTies: return "many-ties";
    case Input::kSpecials: return "specials";
    case Input::kSpecialsInGaussian: return "specials-in-gaussian";
    case Input::kAllEqual: return "all-equal";
    case Input::kDenormals: return "denormals";
  }
  return "?";
}

constexpr Input kInputs[] = {Input::kGaussian,  Input::kManyTies,
                             Input::kSpecials,  Input::kSpecialsInGaussian,
                             Input::kAllEqual,  Input::kDenormals};

// ±0, ±denormal, ±inf, ±NaN (quiet, with a payload, and signaling).
const std::uint32_t kSpecialBits[] = {
    0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x0006CE3Eu,
    0x807FFFFFu, 0x7F800000u, 0xFF800000u, 0x7FC00000u, 0xFFC00000u,
    0x7FC00123u, 0x7F800001u,
};

float random_special(Rng& rng) {
  return from_bits(kSpecialBits[rng.next_below(std::size(kSpecialBits))]);
}

std::vector<float> make_input(Input kind, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) {
    switch (kind) {
      case Input::kGaussian:
        v = static_cast<float>(rng.next_normal());
        break;
      case Input::kManyTies: {
        const float levels[] = {0.25f, 0.5f, 1.0f, 2.0f};
        v = levels[rng.next_below(4)] * (rng.next_below(2) ? -1.0f : 1.0f);
        break;
      }
      case Input::kSpecials:
        v = random_special(rng);
        break;
      case Input::kSpecialsInGaussian:
        v = rng.next_below(16) == 0 ? random_special(rng)
                                    : static_cast<float>(rng.next_normal());
        break;
      case Input::kAllEqual:
        v = 0.75f;
        break;
      case Input::kDenormals:
        v = from_bits(static_cast<std::uint32_t>(rng()) & 0x807FFFFFu);
        break;
    }
  }
  return x;
}

// Every index of x in oracle rank order.
std::vector<std::uint32_t> oracle_rank(std::span<const float> x) {
  std::vector<std::uint32_t> order(x.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return key_of(x[a]) > key_of(x[b]);
                   });
  return order;
}

SparseVector oracle_top_k(std::span<const float> x,
                          const std::vector<std::uint32_t>& rank,
                          std::size_t k) {
  SparseVector s;
  s.indices.assign(rank.begin(), rank.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(s.indices.begin(), s.indices.end());
  for (const auto i : s.indices) s.values.push_back(x[i]);
  return s;
}

std::size_t count_for(std::size_t n, double c) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) / c)));
}

// Value and residual comparisons are on the bits, so NaN payloads, signs
// of zero and denormals all have to match.
void expect_same_bits(std::span<const float> got, std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

// Runs `body` under the AVX2 kernels (where this CPU has them) and their
// portable twins.
template <typename Body>
void for_each_backend(Body body) {
  for (const auto be : {ops::GemmBackend::kAvx2, ops::GemmBackend::kPortable}) {
    if (!ops::gemm_backend_available(be)) continue;
    ops::set_gemm_backend(be);
    SCOPED_TRACE(be == ops::GemmBackend::kAvx2 ? "avx2" : "portable");
    body();
  }
  ops::set_gemm_backend(ops::GemmBackend::kAuto);
}

constexpr double kRatios[] = {1.0, 2.0, 7.5, 100.0, 1000.0, 1e9};

// Sizes on both sides of the strategy switch at n = 4096, odd tails for the
// 8-wide kernels, and TopK-PSGD's 136,714-parameter benchmark MLP.
constexpr std::size_t kSizes[] = {1,    7,    212,   4095,  4096,
                                  4097, 4103, 8192, 65536, 136714};

TEST(TopK, MatchesStableSortOracleOnEveryInputSizeRatioAndBackend) {
  std::vector<TopKCandidate> scratch;
  SparseVector out;
  for (const auto kind : kInputs) {
    for (const auto n : kSizes) {
      const auto x = make_input(kind, n, 1000 + n);
      const auto rank = oracle_rank(x);
      for (const double c : kRatios) {
        SCOPED_TRACE(std::string(input_name(kind)) + " n=" +
                     std::to_string(n) + " c=" + std::to_string(c));
        const auto want = oracle_top_k(x, rank, count_for(n, c));
        for_each_backend([&] {
          top_k(x, c, scratch, out);
          EXPECT_EQ(out.indices, want.indices);
          expect_same_bits(out.values, want.values);
          const auto fresh = top_k(x, c);
          EXPECT_EQ(fresh.indices, want.indices);
          expect_same_bits(fresh.values, want.values);
        });
      }
    }
  }
}

TEST(TopK, NanAndInfinityRankTheSameOnBothSidesOfTheStrategySwitch) {
  // NaN outranks +inf, which outranks every finite value, whichever
  // strategy n selects; a fabs comparator would leave NaN unordered.
  for (const std::size_t n : {4095u, 4096u}) {
    SCOPED_TRACE(n);
    auto x = make_input(Input::kGaussian, n, 77);
    x[10] = std::numeric_limits<float>::quiet_NaN();
    x[20] = -std::numeric_limits<float>::infinity();
    x[30] = -std::numeric_limits<float>::quiet_NaN();
    x[4000] = std::numeric_limits<float>::infinity();
    const auto s = top_k(x, static_cast<double>(n) / 4.0);  // k = 4
    EXPECT_EQ(s.indices, (std::vector<std::uint32_t>{10, 20, 30, 4000}));
    const auto t = top_k(x, static_cast<double>(n) / 2.0);  // k = 2: NaNs
    EXPECT_EQ(t.indices, (std::vector<std::uint32_t>{10, 30}));
  }
}

// IEEE 754 leaves open which payload NaN + NaN carries, and x86 returns the
// first operand's; since + commutes, the compiler's operand order decides
// it.  The error-feedback inputs therefore keep one NaN pattern and one
// infinity, so every sum of two specials has a single possible bit pattern.
std::vector<float> make_gradient(Input kind, std::size_t n,
                                 std::uint64_t seed) {
  auto g = make_input(kind, n, seed);
  for (auto& v : g) {
    if (std::isnan(v)) v = std::numeric_limits<float>::quiet_NaN();
    if (std::isinf(v)) v = std::numeric_limits<float>::infinity();
  }
  return g;
}

// Error feedback against an unfused reference: accumulate, select with the
// plain top_k (checked against the oracle above), subtract what was sent.
TEST(ErrorFeedback, FusedSelectMatchesUnfusedReferenceOverFiveRounds) {
  for (const auto kind : kInputs) {
    for (const auto n : kSizes) {
      std::vector<std::vector<float>> gradients;
      for (std::uint64_t round = 0; round < 5; ++round) {
        gradients.push_back(make_gradient(kind, n, 31 * round + n));
      }
      for (const double c : kRatios) {
        SCOPED_TRACE(std::string(input_name(kind)) + " n=" +
                     std::to_string(n) + " c=" + std::to_string(c));
        for_each_backend([&] {
          ErrorFeedbackTopK ef(n, c);
          std::vector<float> residual(n, 0.0f);
          std::vector<float> acc(n);
          SparseVector sent;
          for (std::size_t round = 0; round < gradients.size(); ++round) {
            const auto& g = gradients[round];
            for (std::size_t i = 0; i < n; ++i) acc[i] = residual[i] + g[i];
            const auto want = top_k(acc, c);
            residual = acc;
            for (const auto i : want.indices) residual[i] = 0.0f;

            ef.compress_into(g, sent);
            ASSERT_EQ(sent.indices, want.indices) << "round " << round;
            expect_same_bits(sent.values, want.values);
            expect_same_bits(ef.residual(), residual);
          }
        });
      }
    }
  }
}

TEST(AddSparse, AccumulatesWithScale) {
  std::vector<float> x(5, 1.0f);
  SparseVector s;
  s.indices = {0, 4};
  s.values = {2.0f, 3.0f};
  add_sparse(x, s, 0.5f);
  EXPECT_FLOAT_EQ(x[0], 2.0f);
  EXPECT_FLOAT_EQ(x[4], 2.5f);
  EXPECT_FLOAT_EQ(x[2], 1.0f);
}

TEST(AddSparse, RejectsOutOfRange) {
  std::vector<float> x(2);
  SparseVector s;
  s.indices = {5};
  s.values = {1.0f};
  EXPECT_THROW(add_sparse(x, s), std::out_of_range);
}

TEST(ErrorFeedback, SentPlusResidualEqualsAccumulated) {
  // EF invariant: compress(g) + residual' == g + residual (nothing lost).
  Rng rng(5);
  const std::size_t n = 1000;
  ErrorFeedbackTopK ef(n, 10.0);
  std::vector<float> g(n);
  for (int round = 0; round < 5; ++round) {
    for (auto& v : g) v = rng.next_float() - 0.5f;
    std::vector<float> before(ef.residual().begin(), ef.residual().end());
    for (std::size_t i = 0; i < n; ++i) before[i] += g[i];

    const auto sent = ef.compress(g);
    std::vector<float> after(ef.residual().begin(), ef.residual().end());
    add_sparse(after, sent);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(after[i], before[i]);
  }
}

TEST(ErrorFeedback, ResidualDrainsEventually) {
  // With zero new gradient, repeated compression flushes the residual.
  const std::size_t n = 100;
  ErrorFeedbackTopK ef(n, 10.0);
  std::vector<float> g(n, 1.0f);
  (void)ef.compress(g);
  std::vector<float> zero(n, 0.0f);
  for (int i = 0; i < 20; ++i) (void)ef.compress(zero);
  double norm = 0.0;
  for (const auto v : ef.residual()) norm += std::abs(v);
  EXPECT_NEAR(norm, 0.0, 1e-6);
}

}  // namespace
}  // namespace saps::compress
