// The packed, register- and cache-blocked GEMM kernel layer behind the
// ops::gemm family (docs/ARCHITECTURE.md, "Kernel layer").
//
// Structure (BLIS-style):
//
//   for jc over n in kNc columns:          B block      → packed, L2/L3
//     for pc over k in kKc depth panels:
//       for ic over m in kMc rows:         A block      → packed, L2
//         for jr, ir over the block:       4×16 micro-tile, C in registers
//
// Every call runs on the calling thread: the engine parallelizes across
// workers and eval blocks, never inside one GEMM.  Pack buffers are
// thread_local, so concurrent calls from different threads share nothing.
//
// Both inputs are repacked into contiguous micro-panels (kMr-row panels of A,
// kNr-column panels of B, k-major within a panel, zero-padded at the edges),
// so the micro-kernel streams unit-stride regardless of the logical layout —
// which is also how the transposed variants (AᵀB, ABᵀ) reuse the same kernel:
// packing absorbs the transpose.
//
// Determinism contract: every C element is computed as
//     c = seed (0 or the prior C value), then
//     c = fma(A[i][kk], B[kk][j], c)   for kk = 0 … k-1 STRICTLY ASCENDING,
//     c = relu(c + bias)               (fused epilogue, final panel only)
// independent of blocking (panel boundaries round-trip C through memory
// exactly), of tile position (edge tiles run the same kernel on a padded
// buffer), and of backend (std::fma and vfmadd are both correctly rounded,
// so the portable and AVX2 paths are bit-identical).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SAPS_GEMM_X86 1
#include <immintrin.h>
#else
#define SAPS_GEMM_X86 0
#endif

namespace saps::ops {

namespace {

void require_same(std::size_t a, std::size_t b, const char* what) {
  if (a != b) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
}

// Micro-tile: kMr×kNr C elements held in registers across the k loop —
// 4 rows × two 8-float vector lanes.  Wider-than-tall because the dominant
// cost per k step is broadcast/load traffic: 4 broadcasts + 2 B loads feed
// 8 FMAs, keeping the FP ports (not the load ports) the bottleneck.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
// Cache blocks: A panels (kMc×kKc ≈ 128 KiB) target L2, B blocks
// (kKc×kNc ≈ 512 KiB) L2/L3, B micro-panels (kKc×kNr = 16 KiB) in L1/L2.
constexpr std::size_t kMc = 128;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 512;
// Micro-panels are padded by one cache line: a kKc-deep B panel is
// otherwise a power-of-two 16 KiB, so consecutive panels would alias to the
// same L1 set and the packing writes (and kernel panel switches) would
// thrash one set.
constexpr std::size_t kPanelPad = 16;

static_assert(kMc % kMr == 0 && kNc % kNr == 0);

// Row/column strides describing a logical (rows × cols) operand over raw
// storage; the transposed GEMM variants swap the strides instead of copying.
struct MatLayout {
  const float* p;
  std::size_t rs, cs;
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return p[r * rs + c * cs];
  }
};

// Per-tile epilogue view: bias pointers pre-offset to the tile's first
// row/column (null when absent).  Only handed to the kernel on the final k
// panel of a non-accumulating fused GEMM.
struct TileEpilogue {
  const float* bias_row = nullptr;  // kMr entries
  const float* bias_col = nullptr;  // kNr entries
  bool relu = false;
};

using MicroKernel = void (*)(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, bool load_c,
                             const TileEpilogue* ep);

// --- portable micro-kernel --------------------------------------------------
//
// Written as plain loops over the packed panels so the compiler can
// auto-vectorize; std::fma keeps the per-element rounding identical to the
// AVX2 path on every ISA (correctly rounded fused multiply-add).
inline void micro_kernel_portable_body(std::size_t kb, const float* ap,
                                       const float* bp, float* c,
                                       std::size_t ldc, bool load_c,
                                       const TileEpilogue* ep) {
  float acc[kMr][kNr];
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t j = 0; j < kNr; ++j) {
      acc[i][j] = load_c ? c[i * ldc + j] : 0.0f;
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const float aval = arow[i];
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[i][j] = std::fma(aval, brow[j], acc[i][j]);
      }
    }
  }
  if (ep != nullptr) {
    if (ep->bias_row != nullptr) {
      for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += ep->bias_row[i];
      }
    }
    if (ep->bias_col != nullptr) {
      for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += ep->bias_col[j];
      }
    }
    if (ep->relu) {
      for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t j = 0; j < kNr; ++j) {
          acc[i][j] = acc[i][j] > 0.0f ? acc[i][j] : 0.0f;
        }
      }
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t j = 0; j < kNr; ++j) c[i * ldc + j] = acc[i][j];
  }
}

void micro_kernel_portable(std::size_t kb, const float* ap, const float* bp,
                           float* c, std::size_t ldc, bool load_c,
                           const TileEpilogue* ep) {
  micro_kernel_portable_body(kb, ap, bp, c, ldc, load_c, ep);
}

// --- AVX2 + FMA micro-kernel ------------------------------------------------

#if SAPS_GEMM_X86
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, bool load_c, const TileEpilogue* ep) {
  // kMr rows × 2 ymm lanes of 8: 8 accumulator registers.
  __m256 acc[kMr][2];
  if (load_c) {
    for (std::size_t i = 0; i < kMr; ++i) {
      acc[i][0] = _mm256_loadu_ps(c + i * ldc);
      acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
    }
  } else {
    for (std::size_t i = 0; i < kMr; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
  }
  // Unrolled by two k steps: the un-unrolled body is ~17 µops per 4-cycle
  // FMA burst, which saturates the 4-wide frontend before the FP ports.
  std::size_t kk = 0;
  for (; kk + 2 <= kb; kk += 2) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < kMr; ++i) {
      const __m256 a = _mm256_broadcast_ss(arow + i);
      acc[i][0] = _mm256_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b1, acc[i][1]);
    }
    const __m256 b2 = _mm256_loadu_ps(brow + kNr);
    const __m256 b3 = _mm256_loadu_ps(brow + kNr + 8);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < kMr; ++i) {
      const __m256 a = _mm256_broadcast_ss(arow + kMr + i);
      acc[i][0] = _mm256_fmadd_ps(a, b2, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b3, acc[i][1]);
    }
  }
  if (kk < kb) {
    const float* arow = ap + kk * kMr;
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < kMr; ++i) {
      const __m256 a = _mm256_broadcast_ss(arow + i);
      acc[i][0] = _mm256_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b1, acc[i][1]);
    }
  }
  if (ep != nullptr) {
    if (ep->bias_row != nullptr) {
      for (std::size_t i = 0; i < kMr; ++i) {
        const __m256 bv = _mm256_set1_ps(ep->bias_row[i]);
        acc[i][0] = _mm256_add_ps(acc[i][0], bv);
        acc[i][1] = _mm256_add_ps(acc[i][1], bv);
      }
    }
    if (ep->bias_col != nullptr) {
      const __m256 bv0 = _mm256_loadu_ps(ep->bias_col);
      const __m256 bv1 = _mm256_loadu_ps(ep->bias_col + 8);
      for (std::size_t i = 0; i < kMr; ++i) {
        acc[i][0] = _mm256_add_ps(acc[i][0], bv0);
        acc[i][1] = _mm256_add_ps(acc[i][1], bv1);
      }
    }
    if (ep->relu) {
      const __m256 zero = _mm256_setzero_ps();
      // maxps(x, 0) == (x > 0 ? x : 0), matching the portable kernel exactly
      // (including the -0.0f → +0.0f and NaN → 0 cases).
      for (std::size_t i = 0; i < kMr; ++i) {
        acc[i][0] = _mm256_max_ps(acc[i][0], zero);
        acc[i][1] = _mm256_max_ps(acc[i][1], zero);
      }
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}
#endif  // SAPS_GEMM_X86

// --- backend dispatch -------------------------------------------------------

bool cpu_supports_avx2_fma() noexcept {
#if SAPS_GEMM_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::atomic<GemmBackend> g_backend{GemmBackend::kAuto};

// The SAPS_GEMM_BACKEND environment override, read exactly once (first
// resolution); a value it cannot honor is reported on stderr and ignored.
// It only steers the kAuto resolution: an explicit set_gemm_backend() still
// wins, so tests that pin a backend are unaffected by the environment they
// run under.
GemmBackend env_backend_uncached() {
  const char* e = std::getenv("SAPS_GEMM_BACKEND");
  if (e == nullptr || *e == '\0') return GemmBackend::kAuto;
  const std::string_view s(e);
  GemmBackend want = GemmBackend::kAuto;
  if (s == "avx2") {
    want = GemmBackend::kAvx2;
  } else if (s == "portable") {
    want = GemmBackend::kPortable;
  } else {
    std::cerr << "[WARN] SAPS_GEMM_BACKEND=" << s
              << ": unknown backend, ignoring\n";
    return GemmBackend::kAuto;
  }
  if (!gemm_backend_available(want)) {
    std::cerr << "[WARN] SAPS_GEMM_BACKEND=" << s
              << ": unavailable on this CPU, ignoring\n";
    return GemmBackend::kAuto;
  }
  return want;
}

GemmBackend resolve(GemmBackend b) noexcept {
  if (b != GemmBackend::kAuto) return b;
  static const GemmBackend env = env_backend_uncached();
  if (env != GemmBackend::kAuto) return env;
  return cpu_supports_avx2_fma() ? GemmBackend::kAvx2 : GemmBackend::kPortable;
}

MicroKernel active_kernel() noexcept {
#if SAPS_GEMM_X86
  if (resolve(g_backend.load(std::memory_order_relaxed)) ==
      GemmBackend::kAvx2) {
    return micro_kernel_avx2;
  }
#endif
  return micro_kernel_portable;
}

// --- packing ----------------------------------------------------------------

// A block (mb×kb starting at (ic, pc)) → kMr-row micro-panels, k-major
// within a panel: ap[(p/kMr)*kb*kMr + kk*kMr + i] = A[ic+p+i][pc+kk].
// Rows past mb are zero-filled so edge tiles run the full-width kernel.
void pack_a_block(const MatLayout& a, std::size_t ic, std::size_t mb,
                  std::size_t pc, std::size_t kb, float* ap) {
  const std::size_t stride = kb * kMr + kPanelPad;
  for (std::size_t p = 0; p < mb; p += kMr) {
    const std::size_t rows = std::min(kMr, mb - p);
    float* dst = ap + p / kMr * stride;
    if (a.cs == 1) {
      // Row-major A: stream each source row once (contiguous reads), writes
      // stride kMr within the panel.
      for (std::size_t i = 0; i < rows; ++i) {
        const float* src = a.p + (ic + p + i) * a.rs + pc;
        for (std::size_t kk = 0; kk < kb; ++kk) dst[kk * kMr + i] = src[kk];
      }
    } else {
      for (std::size_t kk = 0; kk < kb; ++kk) {
        const float* src = a.p + (ic + p) * a.rs + (pc + kk) * a.cs;
        for (std::size_t i = 0; i < rows; ++i) {
          dst[kk * kMr + i] = src[i * a.rs];
        }
      }
    }
    if (rows < kMr) {
      for (std::size_t kk = 0; kk < kb; ++kk) {
        for (std::size_t i = rows; i < kMr; ++i) dst[kk * kMr + i] = 0.0f;
      }
    }
  }
}

// B block (kb×nb starting at (pc, jc)) → kNr-column micro-panels:
// bp[(q/kNr)*kb*kNr + kk*kNr + j] = B[pc+kk][jc+q+j], zero-padded columns.
void pack_b_block(const MatLayout& b, std::size_t pc, std::size_t kb,
                  std::size_t jc, std::size_t nb, float* bp) {
  const std::size_t stride = kb * kNr + kPanelPad;
  for (std::size_t q = 0; q < nb; q += kNr) {
    const std::size_t cols = std::min(kNr, nb - q);
    float* dst = bp + q / kNr * stride;
    if (cols == kNr && b.cs == 1) {
      // Row-major B: each k step copies one contiguous kNr-float chunk;
      // writes fill the panel sequentially.
      const float* src = b.p + pc * b.rs + jc + q;
      for (std::size_t kk = 0; kk < kb; ++kk, src += b.rs) {
        for (std::size_t j = 0; j < kNr; ++j) dst[kk * kNr + j] = src[j];
      }
      continue;
    }
    for (std::size_t kk = 0; kk < kb; ++kk) {
      const float* src = b.p + (pc + kk) * b.rs + (jc + q) * b.cs;
      for (std::size_t j = 0; j < cols; ++j) dst[kk * kNr + j] = src[j * b.cs];
      for (std::size_t j = cols; j < kNr; ++j) dst[kk * kNr + j] = 0.0f;
    }
  }
}

std::size_t round_up(std::size_t v, std::size_t unit) {
  return (v + unit - 1) / unit * unit;
}

// --- small-k fast path ------------------------------------------------------
//
// Packing both operands costs O(mk + kn) writes before the first FMA; at
// k ≲ 16 (the backward-pass gradient GEMMs, AᵀB with k = batch) that
// overhead is never amortized and costs up to ~2.5× on narrow outputs.  At
// this depth the driver skips packing and streams row-major B directly: per
// C element the op sequence is the SAME single k-ascending fma chain as the
// packed path (one k panel, seeded from C or 0), so results stay
// bit-identical.  Beyond k = 16 the packed panels win again (B reuse from
// L1 across row strips outweighs the packing writes).  Wide outputs are
// also excluded: past n ≈ 512 the packed-B panel reuse dominates, and at
// n = 1024 exactly the unpacked B rows sit 4 KB apart — every k step then
// hits one L1 set and the no-pack loop loses ~20% to conflict misses.
constexpr std::size_t kSmallK = 16;
constexpr std::size_t kSmallKMaxN = 512;

void small_k_portable(const MatLayout& a, const MatLayout& b, float* c,
                      std::size_t m, std::size_t k, std::size_t n,
                      bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = a.at(i, kk);
      const float* brow = b.p + kk * b.rs;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = std::fma(aval, brow[j], crow[j]);
      }
    }
  }
}

#if SAPS_GEMM_X86
// One row strip (rows == 1..kMr) of the no-pack path: 16-wide j blocks keep
// rows×2 ymm accumulators live across the whole k loop — the packed
// micro-kernel's register tile, fed by strided loads instead of panels.
__attribute__((target("avx2,fma"))) void small_k_avx2_strip(
    const MatLayout& a, const MatLayout& b, float* c, std::size_t i0,
    std::size_t rows, std::size_t k, std::size_t n, bool accumulate) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc[kMr][2];
    for (std::size_t i = 0; i < rows; ++i) {
      float* crow = c + (i0 + i) * n + j;
      if (accumulate) {
        acc[i][0] = _mm256_loadu_ps(crow);
        acc[i][1] = _mm256_loadu_ps(crow + 8);
      } else {
        acc[i][0] = _mm256_setzero_ps();
        acc[i][1] = _mm256_setzero_ps();
      }
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b.p + kk * b.rs + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      const float* acol = a.p + i0 * a.rs + kk * a.cs;
      for (std::size_t i = 0; i < rows; ++i) {
        const __m256 av = _mm256_broadcast_ss(acol + i * a.rs);
        acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
      }
    }
    for (std::size_t i = 0; i < rows; ++i) {
      float* crow = c + (i0 + i) * n + j;
      _mm256_storeu_ps(crow, acc[i][0]);
      _mm256_storeu_ps(crow + 8, acc[i][1]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[kMr];
    for (std::size_t i = 0; i < rows; ++i) {
      acc[i] = accumulate ? _mm256_loadu_ps(c + (i0 + i) * n + j)
                          : _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b.p + kk * b.rs + j);
      const float* acol = a.p + i0 * a.rs + kk * a.cs;
      for (std::size_t i = 0; i < rows; ++i) {
        acc[i] = _mm256_fmadd_ps(_mm256_broadcast_ss(acol + i * a.rs), bv,
                                 acc[i]);
      }
    }
    for (std::size_t i = 0; i < rows; ++i) {
      _mm256_storeu_ps(c + (i0 + i) * n + j, acc[i]);
    }
  }
  for (; j + 4 <= n; j += 4) {
    __m128 acc[kMr];
    for (std::size_t i = 0; i < rows; ++i) {
      acc[i] = accumulate ? _mm_loadu_ps(c + (i0 + i) * n + j)
                          : _mm_setzero_ps();
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const __m128 bv = _mm_loadu_ps(b.p + kk * b.rs + j);
      const float* acol = a.p + i0 * a.rs + kk * a.cs;
      for (std::size_t i = 0; i < rows; ++i) {
        acc[i] = _mm_fmadd_ps(_mm_broadcast_ss(acol + i * a.rs), bv, acc[i]);
      }
    }
    for (std::size_t i = 0; i < rows; ++i) {
      _mm_storeu_ps(c + (i0 + i) * n + j, acc[i]);
    }
  }
  for (; j < n; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      float acc = accumulate ? c[(i0 + i) * n + j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = std::fma(a.at(i0 + i, kk), b.p[kk * b.rs + j], acc);
      }
      c[(i0 + i) * n + j] = acc;
    }
  }
}

__attribute__((target("avx2,fma"))) void small_k_avx2(
    const MatLayout& a, const MatLayout& b, float* c, std::size_t m,
    std::size_t k, std::size_t n, bool accumulate) {
  std::size_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    small_k_avx2_strip(a, b, c, i, kMr, k, n, accumulate);
  }
  if (i < m) small_k_avx2_strip(a, b, c, i, m - i, k, n, accumulate);
}
#endif  // SAPS_GEMM_X86

// --- driver -----------------------------------------------------------------

// The epilogue's per-element ops for one value, shared by the edge-tile
// copy-back so interior and edge tiles are bit-identical.
float apply_epilogue_scalar(float v, const GemmEpilogue& ep, std::size_t row,
                            std::size_t col) {
  if (!ep.bias.empty()) {
    v += ep.bias[ep.bias_axis == GemmEpilogue::BiasAxis::kRow ? row : col];
  }
  if (ep.relu) v = v > 0.0f ? v : 0.0f;
  return v;
}

// The blocked driver: C(m×n, row-major) = or += A·B, then the epilogue.
void gemm_driver(const MatLayout& a, const MatLayout& b, float* c,
                 std::size_t m, std::size_t k, std::size_t n, bool accumulate,
                 const GemmEpilogue* ep) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // No k panels would run: materialize the seed + epilogue directly.
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          c[i * n + j] =
              ep ? apply_epilogue_scalar(0.0f, *ep, i, j) : 0.0f;
        }
      }
    }
    return;
  }

  // Shallow problems skip packing entirely (same per-element fma chains;
  // see kSmallK above).  Restricted to row-major B so the inner loop streams
  // unit-stride, and to epilogue-free calls (the fused path tiles its bias).
  if (ep == nullptr && k <= kSmallK && n <= kSmallKMaxN && b.cs == 1) {
#if SAPS_GEMM_X86
    if (resolve(g_backend.load(std::memory_order_relaxed)) ==
        GemmBackend::kAvx2) {
      small_k_avx2(a, b, c, m, k, n, accumulate);
      return;
    }
#endif
    small_k_portable(a, b, c, m, k, n, accumulate);
    return;
  }

  const MicroKernel kernel = active_kernel();
  // Per-thread packing scratch: capacity persists across calls, so the hot
  // training loop never allocates after warm-up.
  thread_local std::vector<float> apack;
  thread_local std::vector<float> bpack;

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nb = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kb = std::min(kKc, k - pc);
      const bool last_k = pc + kb == k;
      bpack.resize(round_up(nb, kNr) / kNr * (kb * kNr + kPanelPad));
      pack_b_block(b, pc, kb, jc, nb, bpack.data());
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mb = std::min(kMc, m - ic);
        apack.resize(round_up(mb, kMr) / kMr * (kb * kMr + kPanelPad));
        pack_a_block(a, ic, mb, pc, kb, apack.data());
        // Elements keep accumulating across k panels: seed from C after the
        // first panel (exact float round-trip, so the per-element op
        // sequence stays one unbroken k-ascending fma chain).
        const bool load_c = accumulate || pc > 0;
        const GemmEpilogue* tile_ep = last_k ? ep : nullptr;
        for (std::size_t jr = 0; jr < nb; jr += kNr) {
          const std::size_t cols = std::min(kNr, nb - jr);
          const float* bp = bpack.data() + jr / kNr * (kb * kNr + kPanelPad);
          for (std::size_t ir = 0; ir < mb; ir += kMr) {
            const std::size_t rows = std::min(kMr, mb - ir);
            const float* ap =
                apack.data() + ir / kMr * (kb * kMr + kPanelPad);
            float* ctile = c + (ic + ir) * n + (jc + jr);
            if (rows == kMr && cols == kNr) {
              TileEpilogue te;
              const TileEpilogue* tep = nullptr;
              if (tile_ep != nullptr) {
                if (!tile_ep->bias.empty()) {
                  if (tile_ep->bias_axis == GemmEpilogue::BiasAxis::kRow) {
                    te.bias_row = tile_ep->bias.data() + ic + ir;
                  } else {
                    te.bias_col = tile_ep->bias.data() + jc + jr;
                  }
                }
                te.relu = tile_ep->relu;
                tep = &te;
              }
              kernel(kb, ap, bp, ctile, n, load_c, tep);
            } else {
              // Edge tile: run the same kernel on a kMr×kNr buffer seeded
              // from C (zero-padded), then copy the valid region back with
              // the scalar epilogue — per-element ops identical to the
              // interior path.
              float buf[kMr * kNr];
              for (std::size_t i = 0; i < kMr; ++i) {
                for (std::size_t j = 0; j < kNr; ++j) {
                  buf[i * kNr + j] = (load_c && i < rows && j < cols)
                                         ? ctile[i * n + j]
                                         : 0.0f;
                }
              }
              kernel(kb, ap, bp, buf, kNr, /*load_c=*/true, nullptr);
              for (std::size_t i = 0; i < rows; ++i) {
                for (std::size_t j = 0; j < cols; ++j) {
                  float v = buf[i * kNr + j];
                  if (tile_ep != nullptr) {
                    v = apply_epilogue_scalar(v, *tile_ep, ic + ir + i,
                                              jc + jr + j);
                  }
                  ctile[i * n + j] = v;
                }
              }
            }
          }
        }
      }
    }
  }
}

void check_epilogue(const GemmEpilogue& ep, std::size_t m, std::size_t n,
                    const char* what) {
  if (ep.bias.empty()) return;
  const std::size_t want =
      ep.bias_axis == GemmEpilogue::BiasAxis::kRow ? m : n;
  require_same(ep.bias.size(), want, what);
}

}  // namespace

bool gemm_backend_available(GemmBackend backend) noexcept {
  switch (backend) {
    case GemmBackend::kAuto:
    case GemmBackend::kPortable:
      return true;
    case GemmBackend::kAvx2:
      return cpu_supports_avx2_fma();
  }
  return false;
}

void set_gemm_backend(GemmBackend backend) {
  if (!gemm_backend_available(backend)) {
    throw std::invalid_argument(
        "set_gemm_backend: backend unavailable on this CPU");
  }
  g_backend.store(backend, std::memory_order_relaxed);
}

GemmBackend gemm_backend() noexcept {
  return resolve(g_backend.load(std::memory_order_relaxed));
}

void gemm(std::span<const float> a, std::span<const float> b,
          std::span<float> c, std::size_t m, std::size_t k, std::size_t n) {
  require_same(a.size(), m * k, "gemm A");
  require_same(b.size(), k * n, "gemm B");
  require_same(c.size(), m * n, "gemm C");
  gemm_driver({a.data(), k, 1}, {b.data(), n, 1}, c.data(), m, k, n,
              /*accumulate=*/false, nullptr);
}

void gemm_fused(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
                const GemmEpilogue& epilogue) {
  require_same(a.size(), m * k, "gemm_fused A");
  require_same(b.size(), k * n, "gemm_fused B");
  require_same(c.size(), m * n, "gemm_fused C");
  check_epilogue(epilogue, m, n, "gemm_fused bias");
  gemm_driver({a.data(), k, 1}, {b.data(), n, 1}, c.data(), m, k, n,
              /*accumulate=*/false, &epilogue);
}

void gemm_acc(std::span<const float> a, std::span<const float> b,
              std::span<float> c, std::size_t m, std::size_t k, std::size_t n) {
  require_same(a.size(), m * k, "gemm_acc A");
  require_same(b.size(), k * n, "gemm_acc B");
  require_same(c.size(), m * n, "gemm_acc C");
  gemm_driver({a.data(), k, 1}, {b.data(), n, 1}, c.data(), m, k, n,
              /*accumulate=*/true, nullptr);
}

void gemm_at_b_acc(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::size_t m, std::size_t k,
                   std::size_t n) {
  require_same(a.size(), k * m, "gemm_at_b A");
  require_same(b.size(), k * n, "gemm_at_b B");
  require_same(c.size(), m * n, "gemm_at_b C");
  // Logical A(m×k) is stored (k×m): swap the strides; packing absorbs it.
  gemm_driver({a.data(), 1, m}, {b.data(), n, 1}, c.data(), m, k, n,
              /*accumulate=*/true, nullptr);
}

void gemm_a_bt_acc(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::size_t m, std::size_t k,
                   std::size_t n) {
  require_same(a.size(), m * k, "gemm_a_bt A");
  require_same(b.size(), n * k, "gemm_a_bt B");
  require_same(c.size(), m * n, "gemm_a_bt C");
  // Logical B(k×n) is stored (n×k): swap the strides.
  gemm_driver({a.data(), k, 1}, {b.data(), 1, k}, c.data(), m, k, n,
              /*accumulate=*/true, nullptr);
}

void gemm_a_bt_fused(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t m, std::size_t k,
                     std::size_t n, const GemmEpilogue& epilogue) {
  require_same(a.size(), m * k, "gemm_a_bt_fused A");
  require_same(b.size(), n * k, "gemm_a_bt_fused B");
  require_same(c.size(), m * n, "gemm_a_bt_fused C");
  check_epilogue(epilogue, m, n, "gemm_a_bt_fused bias");
  gemm_driver({a.data(), k, 1}, {b.data(), 1, k}, c.data(), m, k, n,
              /*accumulate=*/false, &epilogue);
}

}  // namespace saps::ops
