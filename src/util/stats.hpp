// Welford running mean.
#pragma once

#include <cstddef>

namespace saps {

/// Numerically stable running mean (Welford's update).
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
  }

  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace saps
