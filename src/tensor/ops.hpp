// Matrix kernels over raw float spans: GEMM, im2col and the direct
// stride-1 convolution kernels that serve src/nn.
//
// The GEMM family runs on the packed, register- and cache-blocked kernel
// layer in tensor/gemm.cpp (see docs/ARCHITECTURE.md, "Kernel layer"): a
// fixed 4×16 micro-kernel (8-float vector lanes) with fused-multiply-add
// accumulation, dispatched at runtime between a portable auto-vectorizable
// path and an AVX2 intrinsics path.
// Both paths perform the IDENTICAL per-element operation sequence
// (strictly k-ascending fma into the output element), so results are
// bit-identical for every backend and every tile size.  A GEMM always runs
// on the thread that calls it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saps::ops {

// --- blocked GEMM kernel layer ---------------------------------------------

/// Which micro-kernel implementation the GEMM driver uses.
enum class GemmBackend : std::uint8_t {
  kAuto = 0,      // resolve at first use: kAvx2 when the CPU supports it
  kPortable = 1,  // std::fma tiles (compiler-vectorizable); runs anywhere
  kAvx2 = 2,      // AVX2+FMA intrinsics micro-kernel
};

/// True when `backend` can run on this machine (kPortable/kAuto always can).
[[nodiscard]] bool gemm_backend_available(GemmBackend backend) noexcept;

/// Forces the backend for all subsequent GEMM calls (not thread-safe against
/// concurrent GEMMs; intended for startup/tests).  Throws
/// std::invalid_argument when the backend is unavailable on this machine.
void set_gemm_backend(GemmBackend backend);

/// The resolved backend the next GEMM call will use (never kAuto).  With the
/// explicit backend left at kAuto, the `SAPS_GEMM_BACKEND=avx2|portable`
/// environment variable (read once) overrides the CPU-feature resolution —
/// the CI hook for forcing portable-path coverage on AVX2 hosts.  An
/// explicit set_gemm_backend() always wins over the environment.
[[nodiscard]] GemmBackend gemm_backend() noexcept;

/// Fused epilogue applied to C after the final k panel of a non-accumulating
/// GEMM: optional bias (broadcast along a row or a column of C) followed by
/// optional ReLU.  Element-wise order is fixed: c = relu(c_gemm + bias).
struct GemmEpilogue {
  enum class BiasAxis : std::uint8_t {
    kRow,  // bias[i] added to every element of C row i (Conv2d channels)
    kCol,  // bias[j] added to every element of C column j (Linear features)
  };
  std::span<const float> bias{};  // empty → no bias
  BiasAxis bias_axis = BiasAxis::kRow;
  bool relu = false;
};

/// C(m×n) = A(m×k) · B(k×n), row-major, C overwritten.  Packed and blocked.
void gemm(std::span<const float> a, std::span<const float> b,
          std::span<float> c, std::size_t m, std::size_t k, std::size_t n);

/// As gemm(), with the fused epilogue applied in the final write of C.
void gemm_fused(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
                const GemmEpilogue& epilogue);

/// C(m×n) += A(m×k) · B(k×n)
void gemm_acc(std::span<const float> a, std::span<const float> b,
              std::span<float> c, std::size_t m, std::size_t k, std::size_t n);

/// C(m×n) += Aᵀ · B where A is (k×m), B is (k×n).
void gemm_at_b_acc(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::size_t m, std::size_t k,
                   std::size_t n);

/// C(m×n) += A · Bᵀ where A is (m×k), B is (n×k).
void gemm_a_bt_acc(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::size_t m, std::size_t k,
                   std::size_t n);

/// C(m×n) = A(m×k) · Bᵀ(k×n) with B stored (n×k), then the fused epilogue —
/// the Linear-forward shape (out = in · Wᵀ + b).
void gemm_a_bt_fused(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t m, std::size_t k,
                     std::size_t n, const GemmEpilogue& epilogue);

/// im2col for NCHW single image: input (C,H,W) → columns
/// (C*kh*kw, out_h*out_w).  Padding is zero-filled.
void im2col(std::span<const float> img, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kernel_h,
            std::size_t kernel_w, std::size_t stride, std::size_t pad,
            std::span<float> cols);

/// Transpose of im2col: scatters column gradients back into an image gradient.
/// `img_grad` is accumulated into (callers zero it first) and must not
/// overlap `cols`.
void col2im(std::span<const float> cols, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kernel_h,
            std::size_t kernel_w, std::size_t stride, std::size_t pad,
            std::span<float> img_grad);

// --- direct stride-1 convolution (tensor/conv.cpp) ---------------------------
//
// The three passes of a stride-1 convolution over a batch of NCHW samples,
// without im2col columns or packed panels.  Each is bit-identical to its
// im2col + GEMM (+ col2im) counterpart on either backend.  `scratch` holds
// the zero-padded sample or gradient plane; it only grows, so a warm caller
// makes no allocation.  Weights are (out_channels × channels·kernel²).

/// One sample's input (channels × height × width), out_channels square
/// kernels, zero padding `pad` on every side.
struct ConvShape {
  std::size_t channels, height, width, out_channels, kernel, pad;
};

/// out(s) = W · im2col(in(s)), plus bias[oc] on output channel oc unless
/// `bias` is empty: gemm_fused with a row bias (gemm without one).
void conv_forward(const ConvShape& shape, std::size_t batch,
                  std::span<const float> in, std::span<const float> weight,
                  std::span<const float> bias, std::span<float> out,
                  std::vector<float>& scratch);

/// dweight += dout(s) · im2col(in(s))ᵀ for s ascending: gemm_a_bt_acc per
/// sample.
void conv_weight_grad(const ConvShape& shape, std::size_t batch,
                      std::span<const float> in, std::span<const float> dout,
                      std::span<float> dweight, std::vector<float>& scratch);

/// din(s) = col2im(Wᵀ · dout(s)) into zeroed images, din overwritten:
/// gemm_at_b_acc into zeroed columns, then col2im.
void conv_input_grad(const ConvShape& shape, std::size_t batch,
                     std::span<const float> weight,
                     std::span<const float> dout, std::span<float> din,
                     std::vector<float>& scratch);

}  // namespace saps::ops
