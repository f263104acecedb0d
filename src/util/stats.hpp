// Welford running moments.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace saps {

/// Numerically stable running mean/variance (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace saps
