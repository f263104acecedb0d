#include "compress/topk.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SAPS_TOPK_X86 1
#include <immintrin.h>
#else
#define SAPS_TOPK_X86 0
#endif

namespace saps::compress {

namespace {

std::size_t top_k_count(std::size_t n, double c) {
  if (c < 1.0) throw std::invalid_argument("top_k: c must be >= 1");
  if (n == 0) throw std::invalid_argument("top_k: empty input");
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) / c)));
}

// Below this size nth_element over (index, key) pairs wins: the threshold
// path pays a fixed cost for clearing its 32 KB of histograms.
constexpr std::size_t kThresholdMinN = 4096;

// |x| as a monotonic unsigned key: clearing the sign bit of the IEEE-754
// pattern orders finite floats exactly like fabs (and keys fit 31 bits, so
// signed epi32 compares in the SIMD scan are order-preserving).
std::uint32_t abs_key(float v) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits & 0x7FFFFFFFu;
}

bool use_avx2() noexcept {
  return ops::gemm_backend() == ops::GemmBackend::kAvx2;
}

// The (key desc, index asc) order both strategies select by.
bool ranks_before(const TopKCandidate& a, const TopKCandidate& b) noexcept {
  return a.key > b.key || (a.key == b.key && a.index < b.index);
}

// Pass 1 digit: key bits 30..20 (8 exponent bits, 3 mantissa bits).  Each
// of the four sub-histograms is 8 KB, so all of them stay in L1.
constexpr unsigned kTopShift = 20;
constexpr std::size_t kTopBuckets = std::size_t{1} << 11;
constexpr std::size_t kSubHists = 4;
using TopHistogram =
    std::array<std::array<std::uint32_t, kTopBuckets>, kSubHists>;

// What pass 1 reads: the input itself (plain top_k), or residual + gradient,
// stored to `acc` as it is formed (error feedback).
struct Source {
  const float* x;         // the input, or the residual
  const float* gradient;  // error feedback only
  float* acc;             // error feedback only
};

template <bool kAccumulate>
float load(const Source& s, std::size_t i) noexcept {
  if constexpr (kAccumulate) {
    const float v = s.x[i] + s.gradient[i];
    s.acc[i] = v;
    return v;
  } else {
    return s.x[i];
  }
}

// Consecutive elements go to different sub-histograms, so a run of equal
// digits does not serialize on one counter's load-add-store chain.
template <bool kAccumulate>
void histogram_scalar(const Source& s, std::size_t begin, std::size_t n,
                      TopHistogram& h) {
  std::size_t i = begin;
  for (; i + kSubHists <= n; i += kSubHists) {
    for (std::size_t j = 0; j < kSubHists; ++j) {
      ++h[j][abs_key(load<kAccumulate>(s, i + j)) >> kTopShift];
    }
  }
  for (; i < n; ++i) ++h[0][abs_key(load<kAccumulate>(s, i)) >> kTopShift];
}

#if SAPS_TOPK_X86
// 8 keys per step.  The add is the scalar twin's IEEE single-precision sum,
// so the stored accumulator is bit-identical (up to which payload NaN + NaN
// carries, which IEEE 754 leaves open).
template <bool kAccumulate>
__attribute__((target("avx2"))) void histogram_avx2(const Source& s,
                                                    std::size_t n,
                                                    TopHistogram& h) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  alignas(32) std::uint32_t digit[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(s.x + i);
    if constexpr (kAccumulate) {
      v = _mm256_add_ps(v, _mm256_loadu_ps(s.gradient + i));
      _mm256_storeu_ps(s.acc + i, v);
    }
    const __m256i key = _mm256_and_si256(_mm256_castps_si256(v), abs_mask);
    _mm256_store_si256(reinterpret_cast<__m256i*>(digit),
                       _mm256_srli_epi32(key, kTopShift));
    for (std::size_t lane = 0; lane < 8; ++lane) {
      ++h[lane % kSubHists][digit[lane]];
    }
  }
  histogram_scalar<kAccumulate>(s, i, n, h);
}
#endif  // SAPS_TOPK_X86

/// The top-digit bucket holding the k-th key: its digit, how many keys lie
/// in higher buckets, and how many lie in it.
struct Bucket {
  std::uint32_t digit = 0;
  std::size_t greater = 0;
  std::size_t size = 0;
};

Bucket find_bucket(const TopHistogram& h, std::size_t k) {
  Bucket b{.digit = static_cast<std::uint32_t>(kTopBuckets - 1)};
  for (;; --b.digit) {
    b.size = 0;
    for (const auto& sub : h) b.size += sub[b.digit];
    if (b.greater + b.size >= k) return b;
    b.greater += b.size;
  }
}

// Pass 2: every (index, key) with key >= lo, in ascending index order.
// Branch-free: each element is written at the next free slot, which only
// advances past a candidate, so `out` needs one entry of slack.
std::size_t gather_scalar(const float* x, std::size_t begin, std::size_t n,
                          std::uint32_t lo, TopKCandidate* out) {
  std::size_t m = 0;
  for (std::size_t i = begin; i < n; ++i) {
    const std::uint32_t key = abs_key(x[i]);
    out[m] = {static_cast<std::uint32_t>(i), key};
    m += key >= lo ? 1 : 0;
  }
  return m;
}

// Slack the gathers may write past the last candidate.
constexpr std::size_t kGatherSlack = 8;

#if SAPS_TOPK_X86
// Left-pack permutations: entry `mask` lists the set lanes of `mask` in
// ascending order, one byte each.
constexpr std::array<std::uint64_t, 256> kPackLanes = [] {
  std::array<std::uint64_t, 256> t{};
  for (unsigned mask = 0; mask < 256; ++mask) {
    unsigned slot = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1u) t[mask] |= std::uint64_t{lane} << (8 * slot++);
    }
  }
  return t;
}();

// The pair stores below write each candidate as two adjacent 32-bit words.
static_assert(sizeof(TopKCandidate) == 8 && offsetof(TopKCandidate, key) == 4);

// 8 keys per compare.  The candidate lanes are left-packed in lane order
// and all 8 (index, key) slots are stored, the cursor advancing by the
// candidate count: no branch depends on the data, so a dense candidate
// list costs the same as an empty one, and `out` needs 8 entries of slack.
__attribute__((target("avx2"))) std::size_t gather_avx2(const float* x,
                                                        std::size_t n,
                                                        std::uint32_t lo,
                                                        TopKCandidate* out) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  // Keys fit 31 bits: key > lo - 1 is key >= lo, and lo = 0 admits all.
  const __m256i below = _mm256_set1_epi32(static_cast<int>(lo) - 1);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i key = _mm256_and_si256(
        _mm256_castps_si256(_mm256_loadu_ps(x + i)), abs_mask);
    const auto mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(key, below))));
    const __m256i lanes = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(kPackLanes[mask])));
    const __m256i idx =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)), lanes);
    const __m256i packed = _mm256_permutevar8x32_epi32(key, lanes);
    // Interleave into (index, key) pairs: lanes 0-1|4-5 and 2-3|6-7.
    const __m256i lo_pairs = _mm256_unpacklo_epi32(idx, packed);
    const __m256i hi_pairs = _mm256_unpackhi_epi32(idx, packed);
    auto* dst = reinterpret_cast<__m256i*>(out + m);
    _mm256_storeu_si256(dst, _mm256_permute2x128_si256(lo_pairs, hi_pairs,
                                                       0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(lo_pairs, hi_pairs,
                                                           0x31));
    m += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  return m + gather_scalar(x, i, n, lo, out + m);
}
#endif  // SAPS_TOPK_X86

/// Exact selection threshold: the k-th largest key plus the number of keys
/// equal to it that still belong to the top k (the "tie budget").
struct Threshold {
  std::uint32_t key = 0;
  std::size_t ties = 0;
};

// Pins the k-th key inside bucket b with two 10-bit digits (bits 19..10,
// then 9..0), histogramming only the bucket's members of the dense list.
// Every candidate adds 0 or 1 to its own digit's counter, so no branch
// depends on which candidates are members.
Threshold pin_threshold(std::span<const TopKCandidate> cand, const Bucket& b,
                        std::size_t k) {
  std::size_t greater = b.greater;  // keys strictly above the prefix so far
  std::uint32_t prefix = b.digit;   // the key's high bits pinned so far
  for (const unsigned shift : {10u, 0u}) {
    std::array<std::uint32_t, 1024> h{};
    for (const auto& c : cand) {
      h[(c.key >> shift) & 1023u] += (c.key >> (shift + 10)) == prefix ? 1 : 0;
    }
    std::uint32_t d = 1023;
    while (greater + h[d] < k) greater += h[d--];
    prefix = (prefix << 10) | d;
  }
  return {prefix, k - greater};
}

// Emits every candidate above T and the first `ties` equal to T, in the
// candidates' ascending index order: the comparator's lower-index-wins rule.
// Each candidate is written at the next output slot, which only advances
// past a taken one, and the walk stops at the k-th, so every write lands
// inside the k outputs.
void emit(const float* x, std::span<const TopKCandidate> cand,
          const Threshold& t, std::size_t k, SparseVector& out) {
  out.indices.resize(k);
  out.values.resize(k);
  std::size_t ties = t.ties;
  std::size_t j = 0;
  for (const auto& c : cand) {
    const bool tie = c.key == t.key && ties > 0;
    out.indices[j] = c.index;
    out.values[j] = x[c.index];
    ties -= tie ? 1 : 0;
    j += (c.key > t.key || tie) ? 1 : 0;
    if (j == k) break;
  }
}

template <bool kAccumulate>
void histogram(const Source& s, std::size_t n, TopHistogram& h) {
#if SAPS_TOPK_X86
  if (use_avx2()) {
    histogram_avx2<kAccumulate>(s, n, h);
    return;
  }
#endif
  histogram_scalar<kAccumulate>(s, 0, n, h);
}

std::size_t gather(const float* x, std::size_t n, std::uint32_t lo,
                   TopKCandidate* out) {
#if SAPS_TOPK_X86
  if (use_avx2()) return gather_avx2(x, n, lo, out);
#endif
  return gather_scalar(x, 0, n, lo, out);
}

template <bool kAccumulate>
void select_threshold(const Source& s, std::size_t n, std::size_t k,
                      std::vector<TopKCandidate>& cand, SparseVector& out) {
  TopHistogram hist{};
  histogram<kAccumulate>(s, n, hist);
  const Bucket b = find_bucket(hist, k);
  const float* x = kAccumulate ? s.acc : s.x;
  // The histogram counted the candidates, so the gather fills exactly
  // greater + size entries and its slack writes are cut off after.
  cand.resize(b.greater + b.size + kGatherSlack);
  gather(x, n, b.digit << kTopShift, cand.data());
  cand.resize(b.greater + b.size);
  emit(x, cand, pin_threshold(cand, b, k), k, out);
}

void select_nth_element(std::span<const float> x, std::size_t k,
                        std::vector<TopKCandidate>& cand, SparseVector& out) {
  const std::size_t n = x.size();
  cand.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cand[i] = {static_cast<std::uint32_t>(i), abs_key(x[i])};
  }
  const auto kth = cand.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(cand.begin(), kth, cand.end(), ranks_before);
  std::sort(cand.begin(), kth,
            [](const TopKCandidate& a, const TopKCandidate& b) {
              return a.index < b.index;
            });
  out.indices.resize(k);
  out.values.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.indices[i] = cand[i].index;
    out.values[i] = x[cand[i].index];
  }
}

// The one selection routine behind top_k and ErrorFeedbackTopK.  The scratch
// reserves n entries once, so neither strategy allocates at steady state;
// pages the threshold path never touches stay non-resident.
template <bool kAccumulate>
void select(const Source& s, std::size_t n, double c,
            std::vector<TopKCandidate>& cand, SparseVector& out) {
  const std::size_t k = top_k_count(n, c);
  cand.reserve(n + kGatherSlack);
  if (n >= kThresholdMinN) {
    select_threshold<kAccumulate>(s, n, k, cand, out);
    return;
  }
  if constexpr (kAccumulate) {
    for (std::size_t i = 0; i < n; ++i) s.acc[i] = s.x[i] + s.gradient[i];
  }
  select_nth_element({kAccumulate ? s.acc : s.x, n}, k, cand, out);
}

}  // namespace

void top_k(std::span<const float> x, double c,
           std::vector<TopKCandidate>& scratch, SparseVector& out) {
  select<false>({.x = x.data()}, x.size(), c, scratch, out);
}

SparseVector top_k(std::span<const float> x, double c) {
  std::vector<TopKCandidate> scratch;
  SparseVector s;
  top_k(x, c, scratch, s);
  return s;
}

void add_sparse(std::span<float> x, const SparseVector& s, float scale) {
  for (std::size_t i = 0; i < s.indices.size(); ++i) {
    const auto idx = s.indices[i];
    if (idx >= x.size()) throw std::out_of_range("add_sparse: index");
    x[idx] += scale * s.values[i];
  }
}

ErrorFeedbackTopK::ErrorFeedbackTopK(std::size_t n, double c)
    : c_(c), residual_(n, 0.0f), scratch_(n, 0.0f) {
  if (n == 0) throw std::invalid_argument("ErrorFeedbackTopK: n == 0");
  if (c < 1.0) throw std::invalid_argument("ErrorFeedbackTopK: c < 1");
}

void ErrorFeedbackTopK::compress_into(std::span<const float> gradient,
                                      SparseVector& out) {
  if (gradient.size() != residual_.size()) {
    throw std::invalid_argument("ErrorFeedbackTopK: size mismatch");
  }
  // scratch = residual + gradient is formed inside the selection's first
  // pass, then becomes the new residual by swapping buffers (no full-vector
  // copy); only the sent coordinates are cleared.  The old residual buffer
  // becomes next round's scratch and is fully overwritten.
  select<true>({.x = residual_.data(),
                .gradient = gradient.data(),
                .acc = scratch_.data()},
               residual_.size(), c_, candidates_, out);
  std::swap(residual_, scratch_);
  for (std::size_t i = 0; i < out.indices.size(); ++i) {
    residual_[out.indices[i]] = 0.0f;
  }
}

SparseVector ErrorFeedbackTopK::compress(std::span<const float> gradient) {
  SparseVector sent;
  compress_into(gradient, sent);
  return sent;
}

}  // namespace saps::compress
