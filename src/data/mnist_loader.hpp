// IDX-format loader for the real MNIST files (LeCun's format), used when the
// files are present on disk; the benches fall back to the synthetic stand-in
// otherwise (docs/ARCHITECTURE.md, "Synthetic stand-ins").  Implemented so
// that a user with the dataset can reproduce the paper's experiments
// bit-for-bit on real data.
#pragma once

#include <optional>
#include <string>

#include "data/dataset.hpp"

namespace saps::data {

/// Loads `images_path` (idx3-ubyte) + `labels_path` (idx1-ubyte) into a
/// Dataset with shape (1, rows, cols), pixels scaled to [0, 1].
/// Throws std::runtime_error on malformed files; returns nullopt if either
/// file does not exist.
[[nodiscard]] std::optional<Dataset> load_mnist_idx(
    const std::string& images_path, const std::string& labels_path);

/// Convenience: looks for train/t10k files under `dir` with the canonical
/// names (train-images-idx3-ubyte etc.); nullopt when absent.
[[nodiscard]] std::optional<Dataset> load_mnist_train(const std::string& dir);
[[nodiscard]] std::optional<Dataset> load_mnist_test(const std::string& dir);

}  // namespace saps::data
