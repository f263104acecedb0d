#include "compress/robust.hpp"

#include <algorithm>
#include <stdexcept>

namespace saps::compress {

MergeRule parse_merge_rule(const std::string& name) {
  if (name == "plain") return MergeRule::kMean;
  if (name == "trimmed") return MergeRule::kTrimmedMean;
  if (name == "median") return MergeRule::kMedian;
  throw std::invalid_argument("aggregation must be plain|trimmed|median, got '" +
                              name + "'");
}

std::size_t trim_count(std::size_t m, double trim_frac) {
  if (m == 0) return 0;
  auto k = static_cast<std::size_t>(trim_frac * static_cast<double>(m));
  return std::min(k, (m - 1) / 2);
}

float robust_center(MergeRule rule, std::span<float> vals, double trim_frac) {
  const std::size_t m = vals.size();
  if (m == 0) throw std::invalid_argument("robust_center: empty input");
  std::sort(vals.begin(), vals.end());
  if (rule == MergeRule::kMedian) {
    const std::size_t mid = m / 2;
    if (m % 2 == 1) return vals[mid];
    return (vals[mid - 1] + vals[mid]) * 0.5f;
  }
  // Trimmed mean (kMean callers also land here when they opt into the
  // sorted-order mean via trim_frac = 0 — e.g. the naive test reference).
  const std::size_t k = rule == MergeRule::kTrimmedMean
                            ? trim_count(m, trim_frac)
                            : 0;
  float sum = 0.0f;
  for (std::size_t i = k; i < m - k; ++i) sum += vals[i];
  return sum / static_cast<float>(m - 2 * k);
}

void robust_combine(MergeRule rule, double trim_frac,
                    std::span<const float* const> inputs, std::size_t begin,
                    std::size_t end, std::span<float> out,
                    std::span<float> scratch) {
  const std::size_t m = inputs.size();
  if (m == 0) throw std::invalid_argument("robust_combine: no inputs");
  auto column = scratch.subspan(0, m);
  for (std::size_t j = begin; j < end; ++j) {
    for (std::size_t i = 0; i < m; ++i) column[i] = inputs[i][j];
    out[j - begin] = robust_center(rule, column, trim_frac);
  }
}

}  // namespace saps::compress
