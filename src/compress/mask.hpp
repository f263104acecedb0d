// Seeded Bernoulli mask sparsification — the paper's Section II-B.
//
// At round t the coordinator broadcasts one seed s; every worker regenerates
// the SAME mask m_t ∈ {0,1}^N with P(m_t[j] = 1) = 1/c (Eq. 3).  Because the
// masked index set is shared, the wire format carries only the surviving
// VALUES (no indices): (seed, round, values[]), which is what makes the
// worker-side traffic ≈ N/c values per direction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace saps::compress {

/// Deterministic Bernoulli(1/c) mask of length n from `seed`.
/// Every caller with the same (seed, n, c) gets the identical mask.
[[nodiscard]] std::vector<std::uint8_t> bernoulli_mask(std::uint64_t seed,
                                                       std::size_t n, double c);

/// Number of ones in the mask.
[[nodiscard]] std::size_t mask_popcount(std::span<const std::uint8_t> mask);

/// Extracts x[j] for all j with mask[j] == 1, in index order.
[[nodiscard]] std::vector<float> extract_masked(
    std::span<const float> x, std::span<const std::uint8_t> mask);

/// The paper's Eq. (7) pairwise update on the masked coordinates:
///   x[j] ← (x[j] + peer_values[k]) / 2   for the k-th masked index j,
/// leaving unmasked coordinates untouched (x ∘ ¬m + ((x + x_peer)/2) ∘ m).
void average_masked_inplace(std::span<float> x,
                            std::span<const std::uint8_t> mask,
                            std::span<const float> peer_values);

}  // namespace saps::compress
