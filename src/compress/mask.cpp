#include "compress/mask.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace saps::compress {

std::vector<std::uint8_t> bernoulli_mask(std::uint64_t seed, std::size_t n,
                                         double c) {
  if (n == 0) throw std::invalid_argument("bernoulli_mask: n == 0");
  if (c < 1.0) throw std::invalid_argument("bernoulli_mask: c must be >= 1");
  const double p = 1.0 / c;
  Rng rng(derive_seed(seed, 0x3a5c));
  std::vector<std::uint8_t> mask(n);
  for (auto& m : mask) m = rng.next_double() < p ? 1 : 0;
  return mask;
}

std::size_t mask_popcount(std::span<const std::uint8_t> mask) {
  std::size_t count = 0;
  for (const auto m : mask) count += m;
  return count;
}

std::vector<float> extract_masked(std::span<const float> x,
                                  std::span<const std::uint8_t> mask) {
  if (x.size() != mask.size()) {
    throw std::invalid_argument("extract_masked: size mismatch");
  }
  std::vector<float> values;
  values.reserve(mask.size() / 16 + 1);
  for (std::size_t j = 0; j < mask.size(); ++j) {
    if (mask[j]) values.push_back(x[j]);
  }
  return values;
}

void average_masked_inplace(std::span<float> x,
                            std::span<const std::uint8_t> mask,
                            std::span<const float> peer_values) {
  if (x.size() != mask.size()) {
    throw std::invalid_argument("average_masked_inplace: size mismatch");
  }
  std::size_t k = 0;
  for (std::size_t j = 0; j < mask.size(); ++j) {
    if (!mask[j]) continue;
    if (k >= peer_values.size()) {
      throw std::invalid_argument("average_masked_inplace: too few values");
    }
    x[j] = 0.5f * (x[j] + peer_values[k]);
    ++k;
  }
  if (k != peer_values.size()) {
    throw std::invalid_argument("average_masked_inplace: too many values");
  }
}

}  // namespace saps::compress
