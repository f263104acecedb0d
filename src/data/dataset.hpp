// In-memory labelled dataset plus batch iteration.
//
// The paper trains on MNIST / CIFAR-10, which are not available offline, so
// src/data also provides procedural generators with the same shapes and class
// counts (see synthetic.hpp and docs/ARCHITECTURE.md, "Synthetic stand-ins").
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saps::data {

class Dataset {
 public:
  Dataset() = default;

  /// sample_shape excludes the batch dimension, e.g. {1,28,28} or {20}.
  Dataset(std::vector<std::size_t> sample_shape, std::vector<float> features,
          std::vector<std::int32_t> labels, std::size_t num_classes);

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return num_classes_;
  }
  [[nodiscard]] const std::vector<std::size_t>& sample_shape() const noexcept {
    return sample_shape_;
  }

  [[nodiscard]] std::int32_t label(std::size_t i) const {
    return labels_.at(i);
  }
  [[nodiscard]] std::span<const float> sample(std::size_t i) const;

  /// Copies the samples at `indices` into `x_out`, resized in place (its
  /// storage kept) to (|indices|, ...sample_shape), and the labels into
  /// `labels_out`.
  void gather(std::span<const std::size_t> indices, Tensor& x_out,
              std::vector<std::int32_t>& labels_out) const;

 private:
  std::vector<std::size_t> sample_shape_;
  std::size_t sample_dim_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<float> features_;
  std::vector<std::int32_t> labels_;
};

/// Epoch-based shuffled mini-batch iterator over a Dataset, or over a view
/// of it: an index list (a worker's shard) whose positions the sampler
/// shuffles and whose samples it gathers, without copying them.
class BatchSampler {
 public:
  BatchSampler(const Dataset& dataset, std::size_t batch_size,
               std::uint64_t seed);
  /// Iteration state: the current epoch's index and the position within
  /// its order.  Each epoch's order is a shuffle of the previous one, in
  /// place, so a sampler rebuilds it by replaying every shuffle from its
  /// seed: a restore costs the shuffles the saved sampler already did, and
  /// the state is two integers whatever the dataset size.  The engine's
  /// replica pool keeps it so a worker that leaves and rejoins the cohort
  /// resumes its batch stream mid-epoch as if it had never been evicted.
  /// The value-initialized state is a fresh sampler's.
  struct State {
    std::size_t epoch;
    std::size_t cursor;
  };

  /// Iterates the samples of `dataset` at `indices` (all of them when
  /// `indices` is empty).  Both are borrowed and must outlive the sampler.
  /// Draws the same batch stream as a sampler over a copy of those samples
  /// in that order.  A `state` saved from a sampler with the same dataset or
  /// view, batch size and seed resumes that sampler's stream; throws when
  /// its cursor lies past the end of the order.
  BatchSampler(const Dataset& dataset, std::span<const std::size_t> indices,
               std::size_t batch_size, std::uint64_t seed, State state = {});

  /// Fills `x` and `labels` with the next mini-batch, reshuffling at epoch
  /// boundaries.  The final batch of an epoch may be smaller.
  void next(Tensor& x, std::vector<std::int32_t>& labels);

  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }

  [[nodiscard]] State save_state() const { return {epoch_, cursor_}; }

 private:
  const Dataset* dataset_;
  std::span<const std::size_t> view_;  // empty: the whole dataset
  std::size_t batch_size_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> gatherer_;  // scratch for the current batch indices
  std::size_t epoch_ = 0;
  std::size_t cursor_ = 0;

  void reshuffle();
};

}  // namespace saps::data
