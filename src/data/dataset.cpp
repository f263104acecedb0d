#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

namespace saps::data {

Dataset::Dataset(std::vector<std::size_t> sample_shape,
                 std::vector<float> features, std::vector<std::int32_t> labels,
                 std::size_t num_classes)
    : sample_shape_(std::move(sample_shape)),
      num_classes_(num_classes),
      features_(std::move(features)),
      labels_(std::move(labels)) {
  sample_dim_ = std::accumulate(sample_shape_.begin(), sample_shape_.end(),
                                std::size_t{1}, std::multiplies<>());
  if (sample_shape_.empty() || sample_dim_ == 0) {
    throw std::invalid_argument("Dataset: empty sample shape");
  }
  if (features_.size() != labels_.size() * sample_dim_) {
    throw std::invalid_argument("Dataset: features/labels size mismatch");
  }
  if (num_classes_ == 0) throw std::invalid_argument("Dataset: zero classes");
  for (const auto label : labels_) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::invalid_argument("Dataset: label out of range");
    }
  }
}

std::span<const float> Dataset::sample(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::sample");
  return std::span<const float>(features_)
      .subspan(i * sample_dim_, sample_dim_);
}

void Dataset::gather(std::span<const std::size_t> indices, Tensor& x_out,
                     std::vector<std::int32_t>& labels_out) const {
  std::vector<std::size_t> shape = sample_shape_;
  shape.insert(shape.begin(), indices.size());
  x_out.resize(shape);
  labels_out.resize(indices.size());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const auto src = sample(indices[b]);
    std::copy(src.begin(), src.end(), x_out.data() + b * sample_dim_);
    labels_out[b] = labels_[indices[b]];
  }
}

BatchSampler::BatchSampler(const Dataset& dataset, std::size_t batch_size,
                           std::uint64_t seed)
    : BatchSampler(dataset, {}, batch_size, seed) {}

BatchSampler::BatchSampler(const Dataset& dataset,
                           std::span<const std::size_t> indices,
                           std::size_t batch_size, std::uint64_t seed,
                           State state)
    : dataset_(&dataset), view_(indices), batch_size_(batch_size), rng_(seed) {
  if (batch_size == 0) throw std::invalid_argument("BatchSampler: batch 0");
  if (dataset.empty()) {
    throw std::invalid_argument("BatchSampler: empty dataset");
  }
  order_.resize(view_.empty() ? dataset.size() : view_.size());
  if (state.cursor > order_.size()) {
    throw std::invalid_argument(
        "BatchSampler: state cursor past the end of the order");
  }
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  for (std::size_t e = 0; e <= state.epoch; ++e) reshuffle();
  epoch_ = state.epoch;
  cursor_ = state.cursor;
}

void BatchSampler::reshuffle() {
  // Fisher–Yates with our deterministic RNG.
  for (std::size_t i = order_.size(); i > 1; --i) {
    const std::size_t j = rng_.next_below(i);
    std::swap(order_[i - 1], order_[j]);
  }
  cursor_ = 0;
}

std::size_t BatchSampler::batches_per_epoch() const noexcept {
  return (order_.size() + batch_size_ - 1) / batch_size_;
}

void BatchSampler::next(Tensor& x, std::vector<std::int32_t>& labels) {
  if (cursor_ >= order_.size()) {
    reshuffle();
    ++epoch_;
  }
  const std::size_t take = std::min(batch_size_, order_.size() - cursor_);
  gatherer_.resize(take);
  for (std::size_t b = 0; b < take; ++b) {
    const std::size_t pos = order_[cursor_ + b];
    gatherer_[b] = view_.empty() ? pos : view_[pos];
  }
  cursor_ += take;
  dataset_->gather(gatherer_, x, labels);
}

}  // namespace saps::data
