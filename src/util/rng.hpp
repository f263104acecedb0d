// Deterministic random number generation for the whole library.
//
// Every stochastic decision in this codebase (data synthesis, weight init,
// Bernoulli masks, matching tie-breaks, bandwidth generation) is derived from
// named 64-bit seeds through the utilities here, so that a run with a fixed
// top-level seed is bit-reproducible.  This mirrors the paper's coordinator
// protocol: the coordinator broadcasts one seed per round and all workers
// regenerate the identical sparsification mask from it (Section II-B).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace saps {

/// SplitMix64: tiny, high-quality mixer used for seed derivation and as the
/// default engine seeder.  Reference: Steele, Lea, Flood (2014).
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t operator()() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the main engine.  Satisfies UniformRandomBitGenerator, so it
/// plugs into <random> distributions; we also expose allocation-free helpers
/// (next_double, next_normal) for hot loops.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5A9DEFA17ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm();
  }

  std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float next_float() noexcept {
    return static_cast<float>((*this)() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation is overkill here; a
    // simple 128-bit multiply keeps the bias below 2^-64.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>((*this)()) * n) >> 64);
  }

  /// Standard normal via Marsaglia polar method (cached spare).
  double next_normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    has_spare_ = true;
    return u * mul;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Derives a child seed from a base seed and up to three integer tags.
/// Used to give each (worker, round, purpose) tuple its own stream without
/// correlation, e.g. derive_seed(run_seed, worker, round).
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::uint64_t base, std::uint64_t tag0 = 0, std::uint64_t tag1 = 0,
    std::uint64_t tag2 = 0) noexcept {
  SplitMix64 sm(base);
  std::uint64_t s = sm();
  s ^= tag0 + 0x9E3779B97F4A7C15ULL + (s << 6) + (s >> 2);
  SplitMix64 sm1(s);
  s = sm1();
  s ^= tag1 + 0x9E3779B97F4A7C15ULL + (s << 6) + (s >> 2);
  SplitMix64 sm2(s);
  s = sm2();
  s ^= tag2 + 0x9E3779B97F4A7C15ULL + (s << 6) + (s >> 2);
  SplitMix64 sm3(s);
  return sm3();
}

}  // namespace saps
