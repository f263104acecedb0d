// Dense float tensor: contiguous row-major storage plus a shape.
//
// This is the substrate under src/nn (our libtorch substitute).  It is kept
// deliberately small: the training algorithms in this repo only need
// contiguous float buffers, shapes for layer plumbing, and a handful of
// BLAS-1 kernels plus GEMM/im2col (in ops.hpp).
#pragma once

#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace saps {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor with the given shape.
  explicit Tensor(std::vector<std::size_t> shape)
      : shape_(std::move(shape)), data_(checked_numel(shape_), 0.0f) {}

  Tensor(std::vector<std::size_t> shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    if (data_.size() != checked_numel(shape_)) {
      throw std::invalid_argument("Tensor: data size does not match shape");
    }
  }

  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept {
    return shape_;
  }
  [[nodiscard]] std::size_t numel() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::size_t dim(std::size_t i) const {
    if (i >= shape_.size()) throw std::out_of_range("Tensor::dim");
    return shape_[i];
  }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<float> span() noexcept { return data_; }
  [[nodiscard]] std::span<const float> span() const noexcept { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  const float& operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (row-major); tensor must have rank 2.
  float& at2(std::size_t r, std::size_t c) {
    return data_[r * shape_[1] + c];
  }
  [[nodiscard]] const float& at2(std::size_t r, std::size_t c) const {
    return data_[r * shape_[1] + c];
  }

  void fill(float v) noexcept {
    for (auto& x : data_) x = v;
  }

  /// Reshape in place; the new shape must preserve numel.
  void reshape(std::vector<std::size_t> shape) {
    if (checked_numel(shape) != data_.size()) {
      throw std::invalid_argument("Tensor::reshape: numel mismatch");
    }
    shape_ = std::move(shape);
  }

  /// Gives the tensor `shape`, keeping its storage: elements up to the
  /// smaller numel keep their values, grown elements are zero, and the
  /// capacity never shrinks, so a buffer sized once for the largest shape
  /// it sees never reallocates.  A no-op when the shape is unchanged.
  void resize(const std::vector<std::size_t>& shape) {
    if (shape == shape_) return;
    data_.resize(checked_numel(shape));
    shape_ = shape;
  }

  [[nodiscard]] std::string shape_str() const {
    std::string s = "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      if (i) s += ",";
      s += std::to_string(shape_[i]);
    }
    return s + "]";
  }

 private:
  static std::size_t checked_numel(const std::vector<std::size_t>& shape) {
    std::size_t n = 1;
    for (auto d : shape) {
      if (d == 0) throw std::invalid_argument("Tensor: zero dimension");
      n *= d;
    }
    return shape.empty() ? 0 : n;
  }

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace saps
