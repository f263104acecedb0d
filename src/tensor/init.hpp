// Weight initialization (He-normal), driven by a saps::Rng so that
// model initialization is reproducible and identical across simulated workers
// when they share a seed (the paper assumes identical initial models, which
// makes the consensus term ‖X₀ − X̄₀1ᵀ‖² vanish — see Section III-C).
#pragma once

#include <span>

#include "util/rng.hpp"

namespace saps {

/// He-normal: N(0, sqrt(2 / fan_in)); standard for ReLU networks.
inline void init_he_normal(std::span<float> w, std::size_t fan_in, Rng& rng) {
  const double std_dev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (auto& v : w) v = static_cast<float>(rng.next_normal() * std_dev);
}

}  // namespace saps
