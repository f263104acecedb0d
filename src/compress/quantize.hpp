// Gradient quantization from the paper's related-work section: QSGD
// (Alistarh et al. 2017) stochastic uniform quantization.  Quantization
// achieves at most 32× compression — the paper's argument for preferring
// sparsification (which reaches 100–1000×) — and the ablation bench
// quantifies that trade-off.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace saps::compress {

/// QSGD with s quantization levels: each coordinate is encoded as
/// sign + level index ∈ [0, s], scaled by ‖x‖₂.  Unbiased:
/// E[decode(encode(x))] = x.
struct QsgdEncoded {
  float norm = 0.0f;
  std::uint8_t levels = 0;                // s
  std::vector<std::int8_t> quantized;     // signed level per coordinate
};

[[nodiscard]] QsgdEncoded qsgd_encode(std::span<const float> x,
                                      std::uint8_t levels, Rng& rng);

/// As qsgd_encode, writing into `out`'s existing buffers — allocation-free
/// once capacities have warmed up (the per-round hot path).  The stochastic
/// rounding consumes exactly one rng draw per coordinate in index order
/// (identical stream to the returning overload), and the elementwise
/// quantization runs vectorized behind the ops::gemm_backend() dispatch with
/// bit-identical results on every backend.  The norm accumulation stays
/// scalar-sequential: it is order-dependent, and reordering it would shift
/// the pinned goldens.
void qsgd_encode(std::span<const float> x, std::uint8_t levels, Rng& rng,
                 QsgdEncoded& out);

[[nodiscard]] std::vector<float> qsgd_decode(const QsgdEncoded& e);

/// As qsgd_decode, writing into `out` (resized to the coordinate count);
/// vectorized behind the same backend dispatch, bit-identical to the scalar
/// loop.
void qsgd_decode(const QsgdEncoded& e, std::vector<float>& out);

// --- bit-packed level streams ----------------------------------------------
//
// The wire format for quantized levels (net::QuantGradMsg) is offset codes
// (q + s ∈ [0, 2s]) at level_bits(s) bits per coordinate, LSB-first within
// each byte.  The helpers below own that stream so the SIMD fast paths
// (BMI2 pext/pdep 8-codes-per-step) and the portable u64 accumulator live
// next to the quantizer; both produce BYTE-IDENTICAL streams — the charge
// accounting and the message_plane_test goldens pin the layout.

/// Bits per packed coordinate: ceil(log2(2s+1)).  levels must be >= 1.
[[nodiscard]] std::size_t level_bits(std::uint8_t levels) noexcept;

/// Packed stream size in whole bytes for `count` coordinates.
[[nodiscard]] std::size_t packed_bytes(std::size_t count,
                                       std::uint8_t levels) noexcept;

/// Appends the packed stream of `quantized` to `bytes`.  Throws
/// std::invalid_argument when any level is outside [-s, s].
void pack_levels(std::span<const std::int8_t> quantized, std::uint8_t levels,
                 std::vector<std::uint8_t>& bytes);

/// Reads out.size() coordinates from the packed stream.  Throws
/// std::invalid_argument on an out-of-range code, std::out_of_range when
/// `bytes` holds fewer than packed_bytes(out.size(), levels) bytes.
void unpack_levels(std::span<const std::uint8_t> bytes, std::uint8_t levels,
                   std::span<std::int8_t> out);

}  // namespace saps::compress
