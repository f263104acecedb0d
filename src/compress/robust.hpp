// Robust aggregation rules: byzantine-tolerant alternatives to the plain
// coordinate-wise mean used by every merge path.
//
// Both rules act per coordinate over the m contributions being merged:
//  - trimmed mean: sort ascending, discard the k = floor(trim_frac * m)
//    smallest and k largest (clamped so at least one survives), average the
//    middle in ascending order;
//  - coordinate-wise median: sort ascending, take the middle element (odd m)
//    or the midpoint of the two middle elements (even m).
//
// Sorting each coordinate's contribution column gives a canonical summation
// order, so the result is independent of the order the contributions arrive
// in and of the thread count — the same fixed-order-reduction discipline the
// rest of the codebase uses (tests/robust_aggregation_test.cpp pins it).
//
// Note the m-way plain mean is NOT expressible as trimmed-mean with k = 0:
// the trimmed path sums in sorted order while the legacy merge paths sum in
// rank order, and float addition is order-sensitive.  Algorithms therefore
// gate on MergeRule::kMean and keep their legacy float path verbatim — that
// is what makes the robust plumbing bit-transparent when disabled.
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace saps::compress {

enum class MergeRule {
  kMean,         // legacy arithmetic mean (each algorithm's own float path)
  kTrimmedMean,  // symmetric trimmed mean, trim_frac per tail
  kMedian,       // coordinate-wise median
};

/// Parses the `aggregation=` spec knob: plain | trimmed | median.  Throws
/// std::invalid_argument on anything else.
[[nodiscard]] MergeRule parse_merge_rule(const std::string& name);

/// Number of elements trimmed from EACH tail for m contributions: k =
/// floor(trim_frac * m), clamped to keep at least one element ((m-1)/2).
[[nodiscard]] std::size_t trim_count(std::size_t m, double trim_frac);

/// Robust center of vals[0..m).  Sorts `vals` in place (ascending); the
/// caller provides scratch it owns.  m == 0 is invalid.
[[nodiscard]] float robust_center(MergeRule rule, std::span<float> vals,
                                  double trim_frac);

/// Coordinate-wise robust combine over the half-open coordinate range
/// [begin, end): out[j - begin] = center over inputs[i][j].  `scratch` must
/// hold at least inputs.size() floats and is owned by the caller (one per
/// parallel chunk).  Safe to call concurrently on disjoint ranges.
void robust_combine(MergeRule rule, double trim_frac,
                    std::span<const float* const> inputs, std::size_t begin,
                    std::size_t end, std::span<float> out,
                    std::span<float> scratch);

}  // namespace saps::compress
