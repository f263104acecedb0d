// Top-k magnitude sparsification with error-feedback residual — the
// compressor used by the TopK-PSGD baseline (Lin et al. 2018; Renggli et al.
// 2019) and, in difference form, by DCD-PSGD (Tang et al. 2018).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace saps::compress {

/// Sparse (index, value) message.
struct SparseVector {
  std::vector<std::uint32_t> indices;  // strictly increasing
  std::vector<float> values;

  [[nodiscard]] std::size_t nnz() const noexcept { return indices.size(); }
};

/// One selection candidate: a coordinate and its |x| key, the IEEE-754 bits
/// of x with the sign cleared.  Keys order finite values exactly like fabs;
/// +inf sits above every finite value and NaN above +inf.
struct TopKCandidate {
  std::uint32_t index;
  std::uint32_t key;
};

/// Selects the k largest-|x| entries (k = ceil(n / c)): the first k in
/// descending key order, ties broken by lower index.  The output is in
/// ascending index order.
[[nodiscard]] SparseVector top_k(std::span<const float> x, double c);

/// As above, reusing `scratch` for selection state and writing into `out`'s
/// existing buffers — allocation-free once capacities have warmed up (the
/// scratch reserves n entries on first use).  Used by the per-round
/// compression hot path.
///
/// Both strategies rank by the same (key desc, index asc) order at every n,
/// NaN included.  Small inputs (n < 4096) run nth_element over (index, key)
/// pairs.  Larger inputs make two streaming passes over x:
///   1. histogram the 11-bit top digit of each key (bits 30..20) into four
///      interleaved, L1-resident sub-histograms (so runs of equal digits do
///      not serialize on one counter), sum them, and walk down from the top
///      bucket to the bucket b1 holding the k-th key;
///   2. gather, in ascending index order, every (index, key) with key >=
///      b1 << 20 into `scratch` (AVX2 compare, movemask and left-pack behind
///      the ops::gemm_backend() dispatch, or its scalar twin).
/// Two 10-bit histograms over bucket b1's members in that dense list pin
/// the exact k-th key T and how many keys equal to T still fit.  The
/// candidates are then emitted in order: every key above T, and keys equal
/// to T while that tie budget lasts, i.e. the lowest indices win.  Every key
/// of the top k is >= b1 << 20, so the candidates hold the whole answer and
/// the select is exact.
void top_k(std::span<const float> x, double c,
           std::vector<TopKCandidate>& scratch, SparseVector& out);

/// Adds a sparse vector, scaled: x[indices[i]] += scale * values[i], in
/// entry order.
void add_sparse(std::span<float> x, std::span<const std::uint32_t> indices,
                std::span<const float> values, float scale = 1.0f);
void add_sparse(std::span<float> x, const SparseVector& s, float scale = 1.0f);

/// Error-feedback compressor state (one per worker): compress(g) returns
/// top-k of (g + residual) and keeps what was not sent as the new residual.
class ErrorFeedbackTopK {
 public:
  ErrorFeedbackTopK(std::size_t n, double c);

  [[nodiscard]] SparseVector compress(std::span<const float> gradient);

  /// As compress, writing into `out`'s existing buffers — allocation-free
  /// once capacities have warmed up (the per-round hot path).  Runs top_k's
  /// selection with residual + gradient formed inside its first pass.
  void compress_into(std::span<const float> gradient, SparseVector& out);

  [[nodiscard]] std::span<const float> residual() const noexcept {
    return residual_;
  }

 private:
  double c_;
  std::vector<float> residual_;
  std::vector<float> scratch_;
  std::vector<TopKCandidate> candidates_;  // selection scratch, persistent
};

}  // namespace saps::compress
