// Direct stride-1 convolution kernels behind ops::conv_forward,
// conv_weight_grad and conv_input_grad (docs/ARCHITECTURE.md, "Kernel
// layer").  They serve every stride-1 nn::Conv2d without im2col columns or
// packed GEMM panels: the forward and weight-gradient passes read a
// zero-padded copy of each sample, and the input gradient adds into a
// zeroed, padded gradient plane whose interior is then copied out.
//
// Every output element keeps the op sequence of im2col + GEMM + col2im, so
// the results are bit-identical to that path on either backend:
//   forward      c = +0, then c = fma(W[oc][kk], x, c) for the taps
//                kk = (c, kh, kw) ascending (a padding tap reads the padded
//                copy's +0, as it reads im2col's zero), then c = c + bias;
//   weight grad  c = dW[oc][kk], then c = fma(dout[oc][p], x, c) for the
//                output pixels p ascending, sample after sample;
//   input grad   v = +0, then v = fma(W[oc][kk], dout[oc][p], v) for oc
//                ascending (the dcols element of gemm_at_b_acc), and every
//                input pixel adds its taps' v from +0 in ascending kk order
//                (col2im's order).
//
// The AVX2 paths hold the GEMM micro-kernel's register tile, four
// broadcasts × two 8-float vectors: output channels × output pixels for
// the forward, taps × output channels for the weight gradient (accumulated
// in a transposed copy of dW, which is exact: a float round-trips through
// memory unchanged), and taps × output pixels for the input gradient.  The
// portable twins are plain std::fma loops over the same chains.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SAPS_CONV_X86 1
#include <immintrin.h>
#else
#define SAPS_CONV_X86 0
#endif

namespace saps::ops {

namespace {

void require_same(std::size_t a, std::size_t b, const char* what) {
  if (a != b) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
}

constexpr std::size_t kLanes = 8;

struct Geometry {
  std::size_t channels, out_channels, kernel, taps;
  std::size_t height, width, pad;
  std::size_t padded_w, plane;  // one padded channel plane: (H+2p)·(W+2p)
  std::size_t out_h, out_w, pixels;
  std::size_t runs;  // pixel runs of up to kLanes over the output rows

  explicit Geometry(const ConvShape& s)
      : channels(s.channels),
        out_channels(s.out_channels),
        kernel(s.kernel),
        taps(s.channels * s.kernel * s.kernel),
        height(s.height),
        width(s.width),
        pad(s.pad),
        padded_w(s.width + 2 * s.pad),
        plane((s.height + 2 * s.pad) * padded_w),
        out_h(s.height + 2 * s.pad - s.kernel + 1),
        out_w(s.width + 2 * s.pad - s.kernel + 1),
        pixels(out_h * out_w),
        runs(out_h * ((out_w + kLanes - 1) / kLanes)) {
    if (s.channels == 0 || s.out_channels == 0 || s.kernel == 0 ||
        s.height == 0 || s.width == 0 || s.height + 2 * s.pad < s.kernel ||
        s.width + 2 * s.pad < s.kernel) {
      throw std::invalid_argument("conv: empty or oversized kernel shape");
    }
  }

  // A partial pixel run at the end of an output row reads (forward) or
  // adds (input gradient) up to seven lanes past the last padded plane.
  [[nodiscard]] std::size_t padded_size() const {
    return channels * plane + kLanes;
  }
};

// The offsets of the taps kk = (c, kh, kw) in a padded sample, in
// ascending kk order.
class TapWalk {
 public:
  explicit TapWalk(const Geometry& g) : g_(g) {}
  std::size_t next() {
    const std::size_t at = off_;
    if (++kw_ < g_.kernel) {
      ++off_;
    } else if (kw_ = 0; ++kh_ < g_.kernel) {
      off_ += g_.padded_w - g_.kernel + 1;
    } else {
      kh_ = 0;
      off_ = ++c_ * g_.plane;
    }
    return at;
  }

 private:
  const Geometry& g_;
  std::size_t c_ = 0, kh_ = 0, kw_ = 0, off_ = 0;
};

// Up to kLanes consecutive output pixels of one row: where they sit in a
// padded plane (read through tap 0) and in the output plane, and how many.
struct Run {
  std::size_t x, out, lanes;
};

// The pixel runs in row-major order: each output row is cut into runs of
// kLanes pixels and a shorter last one.  Walks forward from the first run
// or backward from past the last.
class RunWalk {
 public:
  RunWalk(const Geometry& g, bool from_end)
      : g_(g),
        last_((g.out_w - 1) / kLanes * kLanes),
        oh_(from_end ? g.out_h : 0) {}
  Run next() {
    const Run r = at();
    ow_ += kLanes;
    if (ow_ >= g_.out_w) {
      ow_ = 0;
      ++oh_;
    }
    return r;
  }
  Run prev() {
    if (ow_ == 0) {
      ow_ = last_;
      --oh_;
    } else {
      ow_ -= kLanes;
    }
    return at();
  }

 private:
  [[nodiscard]] Run at() const {
    return {oh_ * g_.padded_w + ow_, oh_ * g_.out_w + ow_,
            std::min(kLanes, g_.out_w - ow_)};
  }
  const Geometry& g_;
  std::size_t last_, oh_, ow_ = 0;
};

// The first `n` floats of `scratch`, grown only when too small so a warm
// caller never allocates.
float* take(std::vector<float>& scratch, std::size_t n) {
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

// Copies a (C, H, W) sample into the interior of its padded planes; the
// border was zeroed once per call and is never written.
void pad_sample(const Geometry& g, const float* src, float* dst) {
  for (std::size_t c = 0; c < g.channels; ++c) {
    float* plane = dst + c * g.plane + g.pad * g.padded_w + g.pad;
    for (std::size_t ih = 0; ih < g.height; ++ih, src += g.width) {
      std::copy(src, src + g.width, plane + ih * g.padded_w);
    }
  }
}

void unpad_sample(const Geometry& g, const float* src, float* dst) {
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* plane = src + c * g.plane + g.pad * g.padded_w + g.pad;
    for (std::size_t ih = 0; ih < g.height; ++ih, dst += g.width) {
      const float* row = plane + ih * g.padded_w;
      std::copy(row, row + g.width, dst);
    }
  }
}

// --- portable twins ----------------------------------------------------------

void forward_portable(const Geometry& g, const float* w, const float* bias,
                      const float* x, float* out) {
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    for (std::size_t oh = 0; oh < g.out_h; ++oh) {
      for (std::size_t ow = 0; ow < g.out_w; ++ow) {
        const float* wk = w + oc * g.taps;
        float acc = 0.0f;
        for (std::size_t c = 0; c < g.channels; ++c) {
          for (std::size_t kh = 0; kh < g.kernel; ++kh) {
            const float* xr = x + c * g.plane + (oh + kh) * g.padded_w + ow;
            for (std::size_t kw = 0; kw < g.kernel; ++kw) {
              acc = std::fma(*wk++, xr[kw], acc);
            }
          }
        }
        if (bias != nullptr) acc += bias[oc];
        *out++ = acc;
      }
    }
  }
}

void weight_grad_portable(const Geometry& g, const float* x,
                          const float* dout, float* dw) {
  TapWalk taps(g);
  for (std::size_t kk = 0; kk < g.taps; ++kk) {
    const float* xt = x + taps.next();
    for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
      const float* d = dout + oc * g.pixels;
      float acc = dw[oc * g.taps + kk];
      for (std::size_t oh = 0; oh < g.out_h; ++oh) {
        for (std::size_t ow = 0; ow < g.out_w; ++ow) {
          acc = std::fma(*d++, xt[oh * g.padded_w + ow], acc);
        }
      }
      dw[oc * g.taps + kk] = acc;
    }
  }
}

void input_grad_portable(const Geometry& g, const float* w, const float* dout,
                         float* dpad) {
  TapWalk taps(g);
  for (std::size_t kk = 0; kk < g.taps; ++kk) {
    float* dt = dpad + taps.next();
    for (std::size_t oh = 0, p = 0; oh < g.out_h; ++oh) {
      for (std::size_t ow = 0; ow < g.out_w; ++ow, ++p) {
        float v = 0.0f;
        for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
          v = std::fma(w[oc * g.taps + kk], dout[oc * g.pixels + p], v);
        }
        dt[oh * g.padded_w + ow] += v;
      }
    }
  }
}

// --- AVX2 + FMA paths --------------------------------------------------------
//
// Each tile keeps its eight accumulators in named registers (GCC spills an
// array of vectors to the stack on every fma).  A tile at an edge runs
// whole: its missing rows or runs repeat the first one and are never
// stored.

#if SAPS_CONV_X86
__attribute__((target("avx2"))) inline __m256i lane_mask(std::size_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// dst(cols × rows, row stride ld) = srcᵀ for src (rows × cols, stride ls):
// 8×8 blocks in registers, scalar edges.  Moves floats, computes nothing.
__attribute__((target("avx2"))) void transpose(const float* src,
                                               std::size_t rows,
                                               std::size_t cols,
                                               std::size_t ls, float* dst,
                                               std::size_t ld) {
  const std::size_t rows8 = rows / 8 * 8, cols8 = cols / 8 * 8;
  for (std::size_t i = 0; i < rows8; i += 8) {
    for (std::size_t j = 0; j < cols8; j += 8) {
      const float* s = src + i * ls + j;
      __m256 r[8];
      for (std::size_t k = 0; k < 8; ++k) r[k] = _mm256_loadu_ps(s + k * ls);
      const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
      const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
      const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
      const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
      const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
      const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
      const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
      const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
      const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
      const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
      const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
      const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
      float* d = dst + j * ld + i;
      _mm256_storeu_ps(d, _mm256_permute2f128_ps(u0, u4, 0x20));
      _mm256_storeu_ps(d + ld, _mm256_permute2f128_ps(u1, u5, 0x20));
      _mm256_storeu_ps(d + 2 * ld, _mm256_permute2f128_ps(u2, u6, 0x20));
      _mm256_storeu_ps(d + 3 * ld, _mm256_permute2f128_ps(u3, u7, 0x20));
      _mm256_storeu_ps(d + 4 * ld, _mm256_permute2f128_ps(u0, u4, 0x31));
      _mm256_storeu_ps(d + 5 * ld, _mm256_permute2f128_ps(u1, u5, 0x31));
      _mm256_storeu_ps(d + 6 * ld, _mm256_permute2f128_ps(u2, u6, 0x31));
      _mm256_storeu_ps(d + 7 * ld, _mm256_permute2f128_ps(u3, u7, 0x31));
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = i < rows8 ? cols8 : 0; j < cols; ++j) {
      dst[j * ld + i] = src[i * ls + j];
    }
  }
}

// Four output channels (rows of W) × two pixel runs, over every tap.
__attribute__((target("avx2,fma"))) void forward_tile_avx2(
    const Geometry& g, const float* w, std::size_t rows, const float* bias,
    const float* x, const Run (&runs)[2], std::size_t vecs, float* out) {
  const float* w0 = w;
  const float* w1 = w + (rows > 1 ? g.taps : 0);
  const float* w2 = w + (rows > 2 ? 2 * g.taps : 0);
  const float* w3 = w + (rows > 3 ? 3 * g.taps : 0);
  __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00;
  __m256 c20 = c00, c21 = c00, c30 = c00, c31 = c00;
  std::size_t kk = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      const float* xr = x + c * g.plane + kh * g.padded_w;
      const float* x0 = xr + runs[0].x;
      const float* x1 = xr + runs[1].x;
      for (std::size_t kw = 0; kw < g.kernel; ++kw, ++kk) {
        const __m256 a0 = _mm256_loadu_ps(x0 + kw);
        const __m256 a1 = _mm256_loadu_ps(x1 + kw);
        __m256 b = _mm256_broadcast_ss(w0 + kk);
        c00 = _mm256_fmadd_ps(b, a0, c00);
        c01 = _mm256_fmadd_ps(b, a1, c01);
        b = _mm256_broadcast_ss(w1 + kk);
        c10 = _mm256_fmadd_ps(b, a0, c10);
        c11 = _mm256_fmadd_ps(b, a1, c11);
        b = _mm256_broadcast_ss(w2 + kk);
        c20 = _mm256_fmadd_ps(b, a0, c20);
        c21 = _mm256_fmadd_ps(b, a1, c21);
        b = _mm256_broadcast_ss(w3 + kk);
        c30 = _mm256_fmadd_ps(b, a0, c30);
        c31 = _mm256_fmadd_ps(b, a1, c31);
      }
    }
  }
  const __m256 acc[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t v = 0; v < vecs; ++v) {
      __m256 o = acc[r][v];
      if (bias != nullptr) o = _mm256_add_ps(o, _mm256_set1_ps(bias[r]));
      float* dst = out + r * g.pixels + runs[v].out;
      if (runs[v].lanes == kLanes) {
        _mm256_storeu_ps(dst, o);
      } else {
        _mm256_maskstore_ps(dst, lane_mask(runs[v].lanes), o);
      }
    }
  }
}

void forward_avx2(const Geometry& g, const float* w, const float* bias,
                  const float* x, float* out) {
  for (std::size_t oc = 0; oc < g.out_channels; oc += 4) {
    const std::size_t rows = std::min<std::size_t>(4, g.out_channels - oc);
    RunWalk walk(g, /*from_end=*/false);
    for (std::size_t i = 0; i < g.runs; i += 2) {
      const std::size_t vecs = std::min<std::size_t>(2, g.runs - i);
      Run runs[2];
      runs[0] = walk.next();
      runs[1] = vecs == 2 ? walk.next() : runs[0];
      forward_tile_avx2(g, w + oc * g.taps, rows,
                        bias != nullptr ? bias + oc : nullptr, x, runs, vecs,
                        out + oc * g.pixels);
    }
  }
}

// The weight gradient accumulates into dW transposed to (taps × ld), one
// vector lane per output channel, from the sample's dout transposed to
// (pixels × ld).  Four taps (at offsets `tap`) × two channel vectors:
__attribute__((target("avx2,fma"))) void weight_tile_avx2(
    const Geometry& g, const std::size_t (&tap)[8], std::size_t rows,
    const float* x, const float* dt, std::size_t ld, float* dwt) {
  const std::size_t r1 = rows > 1 ? 1 : 0, r2 = rows > 2 ? 2 : 0;
  const std::size_t r3 = rows > 3 ? 3 : 0;
  const float* x0 = x + tap[0];
  const float* x1 = x + tap[r1];
  const float* x2 = x + tap[r2];
  const float* x3 = x + tap[r3];
  __m256 c00 = _mm256_loadu_ps(dwt), c01 = _mm256_loadu_ps(dwt + kLanes);
  __m256 c10 = _mm256_loadu_ps(dwt + r1 * ld);
  __m256 c11 = _mm256_loadu_ps(dwt + r1 * ld + kLanes);
  __m256 c20 = _mm256_loadu_ps(dwt + r2 * ld);
  __m256 c21 = _mm256_loadu_ps(dwt + r2 * ld + kLanes);
  __m256 c30 = _mm256_loadu_ps(dwt + r3 * ld);
  __m256 c31 = _mm256_loadu_ps(dwt + r3 * ld + kLanes);
  for (std::size_t row = 0; row < g.out_h * g.padded_w; row += g.padded_w) {
    for (std::size_t q = row; q < row + g.out_w; ++q, dt += ld) {
      const __m256 b0 = _mm256_loadu_ps(dt);
      const __m256 b1 = _mm256_loadu_ps(dt + kLanes);
      __m256 a = _mm256_broadcast_ss(x0 + q);
      c00 = _mm256_fmadd_ps(a, b0, c00);
      c01 = _mm256_fmadd_ps(a, b1, c01);
      a = _mm256_broadcast_ss(x1 + q);
      c10 = _mm256_fmadd_ps(a, b0, c10);
      c11 = _mm256_fmadd_ps(a, b1, c11);
      a = _mm256_broadcast_ss(x2 + q);
      c20 = _mm256_fmadd_ps(a, b0, c20);
      c21 = _mm256_fmadd_ps(a, b1, c21);
      a = _mm256_broadcast_ss(x3 + q);
      c30 = _mm256_fmadd_ps(a, b0, c30);
      c31 = _mm256_fmadd_ps(a, b1, c31);
    }
  }
  const __m256 acc[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  for (std::size_t r = 0; r < rows; ++r) {
    _mm256_storeu_ps(dwt + r * ld, acc[r][0]);
    _mm256_storeu_ps(dwt + r * ld + kLanes, acc[r][1]);
  }
}

// ... and, for a last lone channel vector, eight taps × one vector.
__attribute__((target("avx2,fma"))) void weight_tile8_avx2(
    const Geometry& g, const std::size_t (&tap)[8], std::size_t rows,
    const float* x, const float* dt, std::size_t ld, float* dwt) {
  const float* xs[8];
  __m256 seed[8];
  for (std::size_t r = 0; r < 8; ++r) {
    const std::size_t t = r < rows ? r : 0;
    xs[r] = x + tap[t];
    seed[r] = _mm256_loadu_ps(dwt + t * ld);
  }
  const float *x0 = xs[0], *x1 = xs[1], *x2 = xs[2], *x3 = xs[3];
  const float *x4 = xs[4], *x5 = xs[5], *x6 = xs[6], *x7 = xs[7];
  __m256 c0 = seed[0], c1 = seed[1], c2 = seed[2], c3 = seed[3];
  __m256 c4 = seed[4], c5 = seed[5], c6 = seed[6], c7 = seed[7];
  for (std::size_t row = 0; row < g.out_h * g.padded_w; row += g.padded_w) {
    for (std::size_t q = row; q < row + g.out_w; ++q, dt += ld) {
      const __m256 b = _mm256_loadu_ps(dt);
      c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(x0 + q), b, c0);
      c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(x1 + q), b, c1);
      c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(x2 + q), b, c2);
      c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(x3 + q), b, c3);
      c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(x4 + q), b, c4);
      c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(x5 + q), b, c5);
      c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(x6 + q), b, c6);
      c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(x7 + q), b, c7);
    }
  }
  const __m256 acc[8] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (std::size_t r = 0; r < rows; ++r) _mm256_storeu_ps(dwt + r * ld, acc[r]);
}

void weight_grad_avx2(const Geometry& g, const float* x, const float* dt,
                      std::size_t ld, float* dwt) {
  std::size_t tap[8];
  std::size_t oc = 0;
  for (; oc + 2 * kLanes <= ld; oc += 2 * kLanes) {
    TapWalk walk(g);
    for (std::size_t kk = 0; kk < g.taps; kk += 4) {
      const std::size_t rows = std::min<std::size_t>(4, g.taps - kk);
      for (std::size_t r = 0; r < rows; ++r) tap[r] = walk.next();
      weight_tile_avx2(g, tap, rows, x, dt + oc, ld, dwt + kk * ld + oc);
    }
  }
  if (oc < ld) {
    TapWalk walk(g);
    for (std::size_t kk = 0; kk < g.taps; kk += 8) {
      const std::size_t rows = std::min<std::size_t>(8, g.taps - kk);
      for (std::size_t r = 0; r < rows; ++r) tap[r] = walk.next();
      weight_tile8_avx2(g, tap, rows, x, dt + oc, ld, dwt + kk * ld + oc);
    }
  }
}

// Four taps (at offsets `tap`; their rows of Wᵀ start at `wt`) × two pixel
// runs of dcols, each an oc-ascending chain from +0, then added tap by tap
// into the padded gradient plane.  Lanes past a partial run's end load +0
// and are masked to +0 before the add; a plane value (a sum from +0, so
// never -0) plus +0 is itself.
__attribute__((target("avx2,fma"))) void input_tile_avx2(
    const Geometry& g, const std::size_t (&tap)[4], std::size_t rows,
    const float* wt, const float* dout, const Run (&runs)[2],
    std::size_t vecs, float* dpad) {
  const __m256i m0 = lane_mask(runs[0].lanes), m1 = lane_mask(runs[1].lanes);
  const float* w0 = wt;
  const float* w1 = wt + (rows > 1 ? g.out_channels : 0);
  const float* w2 = wt + (rows > 2 ? 2 * g.out_channels : 0);
  const float* w3 = wt + (rows > 3 ? 3 * g.out_channels : 0);
  __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00;
  __m256 c20 = c00, c21 = c00, c30 = c00, c31 = c00;
  const float* d0 = dout + runs[0].out;
  const float* d1 = dout + runs[1].out;
  for (std::size_t oc = 0; oc < g.out_channels;
       ++oc, d0 += g.pixels, d1 += g.pixels) {
    const __m256 a0 = _mm256_maskload_ps(d0, m0);
    const __m256 a1 = _mm256_maskload_ps(d1, m1);
    __m256 b = _mm256_broadcast_ss(w0 + oc);
    c00 = _mm256_fmadd_ps(b, a0, c00);
    c01 = _mm256_fmadd_ps(b, a1, c01);
    b = _mm256_broadcast_ss(w1 + oc);
    c10 = _mm256_fmadd_ps(b, a0, c10);
    c11 = _mm256_fmadd_ps(b, a1, c11);
    b = _mm256_broadcast_ss(w2 + oc);
    c20 = _mm256_fmadd_ps(b, a0, c20);
    c21 = _mm256_fmadd_ps(b, a1, c21);
    b = _mm256_broadcast_ss(w3 + oc);
    c30 = _mm256_fmadd_ps(b, a0, c30);
    c31 = _mm256_fmadd_ps(b, a1, c31);
  }
  const __m256 acc[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  const __m256 keep[2] = {_mm256_castsi256_ps(m0), _mm256_castsi256_ps(m1)};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t v = 0; v < vecs; ++v) {
      float* dst = dpad + tap[r] + runs[v].x;
      const __m256 val = _mm256_and_ps(acc[r][v], keep[v]);
      _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), val));
    }
  }
}

// A plane pixel takes tap kk from output position X - offset(kk), and the
// offset grows with kk: a later tap comes from an earlier output pixel.
// Tiles therefore run from the last pixel runs back to the first, taps
// ascending within each, so every pixel still adds its taps in ascending
// order.  `wt` is W transposed to (taps × out_channels).
void input_grad_avx2(const Geometry& g, const float* wt, const float* dout,
                     float* dpad) {
  RunWalk walk(g, /*from_end=*/true);
  std::size_t tap[4];
  for (std::size_t left = g.runs; left > 0;) {
    const std::size_t vecs = std::min<std::size_t>(2, left);
    left -= vecs;
    Run runs[2];
    runs[1] = walk.prev();
    runs[0] = vecs == 2 ? walk.prev() : runs[1];
    TapWalk taps(g);
    for (std::size_t kk = 0; kk < g.taps; kk += 4) {
      const std::size_t rows = std::min<std::size_t>(4, g.taps - kk);
      for (std::size_t r = 0; r < rows; ++r) tap[r] = taps.next();
      input_tile_avx2(g, tap, rows, wt + kk * g.out_channels, dout, runs,
                      vecs, dpad);
    }
  }
}
#endif  // SAPS_CONV_X86

bool use_avx2() noexcept {
#if SAPS_CONV_X86
  return gemm_backend() == GemmBackend::kAvx2;
#else
  return false;
#endif
}

}  // namespace

void conv_forward(const ConvShape& shape, std::size_t batch,
                  std::span<const float> in, std::span<const float> weight,
                  std::span<const float> bias, std::span<float> out,
                  std::vector<float>& scratch) {
  const Geometry g(shape);
  const std::size_t in_stride = g.channels * g.height * g.width;
  const std::size_t out_stride = g.out_channels * g.pixels;
  require_same(in.size(), batch * in_stride, "conv_forward in");
  require_same(weight.size(), g.out_channels * g.taps, "conv_forward weight");
  require_same(out.size(), batch * out_stride, "conv_forward out");
  if (!bias.empty()) require_same(bias.size(), g.out_channels, "conv bias");
  float* x = take(scratch, g.padded_size());
  std::fill(x, x + g.padded_size(), 0.0f);
  const float* b = bias.empty() ? nullptr : bias.data();
  for (std::size_t s = 0; s < batch; ++s) {
    pad_sample(g, in.data() + s * in_stride, x);
    float* o = out.data() + s * out_stride;
#if SAPS_CONV_X86
    if (use_avx2()) {
      forward_avx2(g, weight.data(), b, x, o);
      continue;
    }
#endif
    forward_portable(g, weight.data(), b, x, o);
  }
}

void conv_weight_grad(const ConvShape& shape, std::size_t batch,
                      std::span<const float> in, std::span<const float> dout,
                      std::span<float> dweight, std::vector<float>& scratch) {
  const Geometry g(shape);
  const std::size_t in_stride = g.channels * g.height * g.width;
  const std::size_t out_stride = g.out_channels * g.pixels;
  require_same(in.size(), batch * in_stride, "conv_weight_grad in");
  require_same(dout.size(), batch * out_stride, "conv_weight_grad dout");
  require_same(dweight.size(), g.out_channels * g.taps,
               "conv_weight_grad dweight");
#if SAPS_CONV_X86
  if (use_avx2()) {
    // Output channels become vector lanes: dout and dW are transposed, and
    // the lanes past out_channels stay zero and are never copied back.
    const std::size_t ld = (g.out_channels + kLanes - 1) / kLanes * kLanes;
    const std::size_t dt_size = g.pixels * ld, dwt_size = g.taps * ld;
    float* x = take(scratch, g.padded_size() + dt_size + dwt_size);
    float* dt = x + g.padded_size();
    float* dwt = dt + dt_size;
    std::fill(x, dwt + dwt_size, 0.0f);
    transpose(dweight.data(), g.out_channels, g.taps, g.taps, dwt, ld);
    for (std::size_t s = 0; s < batch; ++s) {
      pad_sample(g, in.data() + s * in_stride, x);
      transpose(dout.data() + s * out_stride, g.out_channels, g.pixels,
                g.pixels, dt, ld);
      weight_grad_avx2(g, x, dt, ld, dwt);
    }
    transpose(dwt, g.taps, g.out_channels, ld, dweight.data(), g.taps);
    return;
  }
#endif
  float* x = take(scratch, g.padded_size());
  std::fill(x, x + g.padded_size(), 0.0f);
  for (std::size_t s = 0; s < batch; ++s) {
    pad_sample(g, in.data() + s * in_stride, x);
    weight_grad_portable(g, x, dout.data() + s * out_stride, dweight.data());
  }
}

void conv_input_grad(const ConvShape& shape, std::size_t batch,
                     std::span<const float> weight,
                     std::span<const float> dout, std::span<float> din,
                     std::vector<float>& scratch) {
  const Geometry g(shape);
  const std::size_t in_stride = g.channels * g.height * g.width;
  const std::size_t out_stride = g.out_channels * g.pixels;
  require_same(weight.size(), g.out_channels * g.taps,
               "conv_input_grad weight");
  require_same(dout.size(), batch * out_stride, "conv_input_grad dout");
  require_same(din.size(), batch * in_stride, "conv_input_grad din");
#if SAPS_CONV_X86
  if (use_avx2()) {
    float* dpad = take(scratch, g.padded_size() + g.taps * g.out_channels);
    float* wt = dpad + g.padded_size();
    transpose(weight.data(), g.out_channels, g.taps, g.taps, wt,
              g.out_channels);
    for (std::size_t s = 0; s < batch; ++s) {
      std::fill(dpad, dpad + g.padded_size(), 0.0f);
      input_grad_avx2(g, wt, dout.data() + s * out_stride, dpad);
      unpad_sample(g, dpad, din.data() + s * in_stride);
    }
    return;
  }
#endif
  float* dpad = take(scratch, g.padded_size());
  for (std::size_t s = 0; s < batch; ++s) {
    std::fill(dpad, dpad + g.padded_size(), 0.0f);
    input_grad_portable(g, weight.data(), dout.data() + s * out_stride, dpad);
    unpad_sample(g, dpad, din.data() + s * in_stride);
  }
}

}  // namespace saps::ops
