#include "compress/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SAPS_QUANT_X86 1
#include <immintrin.h>
#else
#define SAPS_QUANT_X86 0
#endif

namespace saps::compress {

namespace {

// The compression kernels ride the GEMM backend dispatch: gemm_backend()
// never returns kAvx2 on a CPU without AVX2+FMA, and SAPS_GEMM_BACKEND /
// set_gemm_backend() force both layers at once.
bool use_avx2() noexcept {
  return ops::gemm_backend() == ops::GemmBackend::kAvx2;
}

#if SAPS_QUANT_X86
bool cpu_supports_bmi2() noexcept {
  static const bool v = __builtin_cpu_supports("bmi2");
  return v;
}
#endif

// --- stochastic quantization (elementwise pass) -----------------------------
//
// Per coordinate: r = |x|/‖x‖·s, level = ⌊r⌋ + [draw < frac], sign applied,
// cast to int8.  All elementwise IEEE double ops, so the 4-wide AVX2 twin is
// bit-identical to this scalar chain.
void quantize_scalar(const float* x, const double* draws, std::int8_t* q,
                     std::size_t begin, std::size_t end, double norm,
                     double s) {
  for (std::size_t i = begin; i < end; ++i) {
    const double r = std::abs(x[i]) / norm * s;  // in [0, s]
    const double floor_r = std::floor(r);
    const double level = floor_r + (draws[i] < (r - floor_r) ? 1 : 0);
    q[i] = static_cast<std::int8_t>(x[i] < 0 ? -level : level);
  }
}

#if SAPS_QUANT_X86
__attribute__((target("avx2"))) void quantize_avx2(const float* x,
                                                   const double* draws,
                                                   std::int8_t* q,
                                                   std::size_t n, double norm,
                                                   double s) {
  const __m256d vnorm = _mm256_set1_pd(norm);
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m128 signbit = _mm_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 xf = _mm_loadu_ps(x + i);
    // |x| as float, widened to double: identical to std::abs(float) feeding
    // the double division in the scalar chain.
    const __m256d xd = _mm256_cvtps_pd(_mm_andnot_ps(signbit, xf));
    const __m256d r = _mm256_mul_pd(_mm256_div_pd(xd, vnorm), vs);
    const __m256d fl = _mm256_floor_pd(r);
    const __m256d frac = _mm256_sub_pd(r, fl);
    const __m256d draw = _mm256_loadu_pd(draws + i);
    const __m256d bump =
        _mm256_and_pd(_mm256_cmp_pd(draw, frac, _CMP_LT_OQ), vone);
    // level is an exact small integer, so round-to-nearest cvt is exact.
    __m128i li = _mm256_cvtpd_epi32(_mm256_add_pd(fl, bump));
    const __m128i negmask =
        _mm_castps_si128(_mm_cmplt_ps(xf, _mm_setzero_ps()));
    li = _mm_sub_epi32(_mm_xor_si128(li, negmask), negmask);
    const __m128i p8 = _mm_packs_epi16(_mm_packs_epi32(li, li), li);
    const int packed = _mm_cvtsi128_si32(p8);
    std::memcpy(q + i, &packed, 4);
  }
  quantize_scalar(x, draws, q, i, n, norm, s);
}
#endif  // SAPS_QUANT_X86

// --- dequantization (elementwise) -------------------------------------------

void dequantize_scalar(const std::int8_t* q, float* out, std::size_t begin,
                       std::size_t end, float unit) {
  for (std::size_t i = begin; i < end; ++i) {
    out[i] = unit * static_cast<float>(q[i]);
  }
}

#if SAPS_QUANT_X86
__attribute__((target("avx2"))) void dequantize_avx2(const std::int8_t* q,
                                                     float* out, std::size_t n,
                                                     float unit) {
  const __m256 vu = _mm256_set1_ps(unit);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(f, vu));
  }
  dequantize_scalar(q, out, i, n, unit);
}
#endif  // SAPS_QUANT_X86

// --- packed level streams ---------------------------------------------------

[[noreturn]] void throw_out_of_range_level() {
  throw std::invalid_argument("pack_levels: level out of range");
}

// The historical LSB-first accumulator (byte-identical to the original
// net::QuantGradMsg loop); also the tail path after the SIMD groups.
void pack_portable(const std::int8_t* q, std::size_t begin, std::size_t end,
                   int levels, std::size_t bits, std::uint8_t*& dst) {
  std::uint64_t acc = 0;
  std::size_t filled = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const int offset = static_cast<int>(q[i]) + levels;
    if (offset < 0 || offset > 2 * levels) throw_out_of_range_level();
    acc |= static_cast<std::uint64_t>(offset) << filled;
    filled += bits;
    while (filled >= 8) {
      *dst++ = static_cast<std::uint8_t>(acc & 0xFF);
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) *dst++ = static_cast<std::uint8_t>(acc & 0xFF);
}

#if SAPS_QUANT_X86
// 8 codes per step: the offset bytes (q + s, each < 2⁸ since bits ≤ 8 ⇒
// s ≤ 127) live in one u64; pext with a low-`bits`-per-byte mask compacts
// them in ascending bit order — exactly the LSB-first stream — and 8·bits
// bits land byte-aligned, so each group writes `bits` whole bytes.
__attribute__((target("avx2,bmi2"))) std::size_t pack_avx2(
    const std::int8_t* q, std::size_t n, int levels, std::size_t bits,
    std::uint8_t*& dst) {
  const __m128i vmax = _mm_set1_epi8(static_cast<char>(levels));
  const __m128i vmin = _mm_set1_epi8(static_cast<char>(-levels));
  const std::uint64_t mask =
      0x0101010101010101ULL * ((1ULL << bits) - 1ULL);
  std::size_t i = 0;
  std::uint8_t offs[16];
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m128i bad =
        _mm_or_si128(_mm_cmpgt_epi8(v, vmax), _mm_cmpgt_epi8(vmin, v));
    if (_mm_movemask_epi8(bad) != 0) throw_out_of_range_level();
    // Wrapping epi8 add == the true offset mod 256, and the true offset
    // fits a byte, so the wrapped bits are exact.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(offs),
                     _mm_add_epi8(v, vmax));
    for (int g = 0; g < 2; ++g) {
      std::uint64_t codes;
      std::memcpy(&codes, offs + 8 * g, 8);
      const std::uint64_t packed = _pext_u64(codes, mask);
      std::memcpy(dst, &packed, 8);  // `bits` live bytes + slack
      dst += bits;
    }
  }
  return i;
}

// Inverse: pdep spreads `bits`-bit codes back to one byte each; 16 codes per
// step are range-checked and de-offset with one SSE pass.
__attribute__((target("avx2,bmi2"))) std::size_t unpack_avx2(
    const std::uint8_t* src, std::size_t len, int levels, std::size_t bits,
    std::int8_t* out, std::size_t n) {
  const __m128i vmax2s = _mm_set1_epi8(static_cast<char>(2 * levels));
  const __m128i vlev = _mm_set1_epi8(static_cast<char>(levels));
  const std::uint64_t mask =
      0x0101010101010101ULL * ((1ULL << bits) - 1ULL);
  std::size_t i = 0, off = 0;
  std::uint8_t offs[16];
  // Each 8-code group reads 8 bytes from its `bits`-byte window, so the
  // second group of the pair needs off + bits + 8 ≤ len.
  while (i + 16 <= n && off + bits + 8 <= len) {
    for (int g = 0; g < 2; ++g) {
      std::uint64_t packed;
      std::memcpy(&packed, src + off, 8);
      const std::uint64_t codes = _pdep_u64(packed, mask);
      std::memcpy(offs + 8 * g, &codes, 8);
      off += bits;
    }
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(offs));
    // Unsigned offset ≤ 2s ⇔ saturating subtraction of 2s leaves zero.
    const __m128i over = _mm_subs_epu8(v, vmax2s);
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(over, _mm_setzero_si128())) !=
        0xFFFF) {
      throw std::invalid_argument("unpack_levels: level out of range");
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_sub_epi8(v, vlev));
    i += 16;
  }
  return i;
}
#endif  // SAPS_QUANT_X86

void unpack_portable(const std::uint8_t* src, std::size_t len, int levels,
                     std::size_t bits, std::int8_t* out, std::size_t begin,
                     std::size_t end) {
  std::size_t pos = begin * bits / 8;  // byte-aligned: begin is 0 or 16·g
  std::uint64_t acc = 0;
  std::size_t filled = 0;
  const std::uint64_t mask = (1ULL << bits) - 1ULL;
  for (std::size_t i = begin; i < end; ++i) {
    while (filled < bits) {
      if (pos >= len) {
        throw std::out_of_range("unpack_levels: truncated stream");
      }
      acc |= static_cast<std::uint64_t>(src[pos++]) << filled;
      filled += 8;
    }
    const int offset = static_cast<int>(acc & mask);
    acc >>= bits;
    filled -= bits;
    if (offset > 2 * levels) {
      throw std::invalid_argument("unpack_levels: level out of range");
    }
    out[i] = static_cast<std::int8_t>(offset - levels);
  }
}

}  // namespace

void qsgd_encode(std::span<const float> x, std::uint8_t levels, Rng& rng,
                 QsgdEncoded& out) {
  if (levels == 0) throw std::invalid_argument("qsgd_encode: levels == 0");
  if (x.empty()) throw std::invalid_argument("qsgd_encode: empty input");
  // Sequential double accumulation: ORDER-DEPENDENT, must stay scalar (the
  // pinned run goldens encode this exact summation order).
  double norm_sq = 0.0;
  for (const float v : x) norm_sq += static_cast<double>(v) * v;
  const double norm = std::sqrt(norm_sq);

  out.norm = static_cast<float>(norm);
  out.levels = levels;
  out.quantized.resize(x.size());
  if (norm == 0.0) {
    // The zero-gradient early-out consumes NO rng draws (matching the
    // original element loop, which never ran).
    std::fill(out.quantized.begin(), out.quantized.end(), 0);
    return;
  }

  const double s = static_cast<double>(levels);
  // One draw per coordinate in index order — batching preserves the exact
  // stream the per-element loop consumed, and makes the rest of the pass
  // elementwise (vectorizable).  Thread-local so per-worker encodes on the
  // pool are allocation-free after warm-up.
  thread_local std::vector<double> draws;
  draws.resize(x.size());
  for (auto& d : draws) d = rng.next_double();

#if SAPS_QUANT_X86
  // levels ≤ 127 keeps every signed level within int8 so the packed cast is
  // exact; larger s falls back to the scalar chain.
  if (use_avx2() && levels <= 127) {
    quantize_avx2(x.data(), draws.data(), out.quantized.data(), x.size(),
                  norm, s);
    return;
  }
#endif
  quantize_scalar(x.data(), draws.data(), out.quantized.data(), 0, x.size(),
                  norm, s);
}

QsgdEncoded qsgd_encode(std::span<const float> x, std::uint8_t levels,
                        Rng& rng) {
  QsgdEncoded e;
  qsgd_encode(x, levels, rng, e);
  return e;
}

void qsgd_decode(const QsgdEncoded& e, std::vector<float>& out) {
  if (e.levels == 0) throw std::invalid_argument("qsgd_decode: levels == 0");
  out.resize(e.quantized.size());
  const float unit = e.norm / static_cast<float>(e.levels);
#if SAPS_QUANT_X86
  if (use_avx2()) {
    dequantize_avx2(e.quantized.data(), out.data(), out.size(), unit);
    return;
  }
#endif
  dequantize_scalar(e.quantized.data(), out.data(), 0, out.size(), unit);
}

std::vector<float> qsgd_decode(const QsgdEncoded& e) {
  std::vector<float> out;
  qsgd_decode(e, out);
  return out;
}

std::size_t level_bits(std::uint8_t levels) noexcept {
  const double symbols = 2.0 * static_cast<double>(levels) + 1.0;
  return static_cast<std::size_t>(std::ceil(std::log2(symbols)));
}

std::size_t packed_bytes(std::size_t count, std::uint8_t levels) noexcept {
  return (count * level_bits(levels) + 7) / 8;
}

void pack_levels(std::span<const std::int8_t> quantized, std::uint8_t levels,
                 std::vector<std::uint8_t>& bytes) {
  if (levels == 0) throw std::invalid_argument("pack_levels: levels == 0");
  const std::size_t bits = level_bits(levels);
  const std::size_t old = bytes.size();
  const std::size_t packed = packed_bytes(quantized.size(), levels);
  // +8 slack lets the SIMD path store whole u64s; trimmed before returning.
  bytes.resize(old + packed + 8);
  std::uint8_t* dst = bytes.data() + old;
  std::size_t done = 0;
#if SAPS_QUANT_X86
  if (use_avx2() && cpu_supports_bmi2() && bits <= 8) {
    done = pack_avx2(quantized.data(), quantized.size(),
                     static_cast<int>(levels), bits, dst);
  }
#endif
  pack_portable(quantized.data(), done, quantized.size(),
                static_cast<int>(levels), bits, dst);
  bytes.resize(old + packed);
}

void unpack_levels(std::span<const std::uint8_t> bytes, std::uint8_t levels,
                   std::span<std::int8_t> out) {
  if (levels == 0) throw std::invalid_argument("unpack_levels: levels == 0");
  const std::size_t bits = level_bits(levels);
  if (bytes.size() < packed_bytes(out.size(), levels)) {
    throw std::out_of_range("unpack_levels: truncated stream");
  }
  std::size_t done = 0;
#if SAPS_QUANT_X86
  if (use_avx2() && cpu_supports_bmi2() && bits <= 8) {
    done = unpack_avx2(bytes.data(), bytes.size(), static_cast<int>(levels),
                       bits, out.data(), out.size());
  }
#endif
  unpack_portable(bytes.data(), bytes.size(), static_cast<int>(levels), bits,
                  out.data(), done, out.size());
}

}  // namespace saps::compress
