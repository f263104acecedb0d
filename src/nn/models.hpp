// Model builders for the architectures evaluated in the paper plus
// scaled-down variants used by the fast benchmark defaults and tests.
//
// Paper (Table II): MNIST-CNN 6,653,628 params, CIFAR10-CNN 7,025,886 params,
// ResNet-20 269,722 params.  Our MNIST-CNN/CIFAR10-CNN follow the McMahan
// FedAvg CNN shape (2×conv5x5 + 2×fc) with hidden sizes chosen to land near
// the paper's parameter counts; ResNet-20 is the standard CIFAR ResNet.
#pragma once

#include <cstdint>

#include "nn/model.hpp"

namespace saps::nn {

/// MLP with ReLU hidden layers (none: logistic regression).  For fast
/// tests and quickstart.
Model make_mlp(std::vector<std::size_t> input_shape,
               const std::vector<std::size_t>& hidden, std::size_t classes,
               std::uint64_t seed);

/// Paper's MNIST-CNN (input 1×28×28): conv5x5/32 → pool → conv5x5/64 → pool →
/// fc(hidden) → fc(10).  hidden=2048 gives ≈6.5M params (paper: 6.65M).
Model make_mnist_cnn(std::uint64_t seed, std::size_t hidden = 2048);

/// Paper's CIFAR10-CNN (input 3×32×32): conv5x5/32 → pool → conv5x5/64 →
/// pool → fc(hidden) → fc(10).  hidden=1664 gives ≈6.9M params (paper: 7.0M).
Model make_cifar_cnn(std::uint64_t seed, std::size_t hidden = 1664);

/// ResNet-20 for CIFAR (input 3×32×32): 3 stages × 3 basic blocks,
/// widths {16, 32, 64}; ≈272k params (paper: 269,722).
Model make_resnet20(std::uint64_t seed, std::size_t classes = 10);

/// Scaled-down CNN used by bench defaults: same topology as the paper CNNs
/// but sized for a (channels × img × img) input so full sweeps run in seconds.
Model make_tiny_cnn(std::size_t channels, std::size_t img, std::size_t classes,
                    std::uint64_t seed, std::size_t width = 8,
                    std::size_t hidden = 64);

/// Scaled-down ResNet (1 block per stage, widths {w, 2w, 4w}).
Model make_tiny_resnet(std::size_t channels, std::size_t img,
                       std::size_t classes, std::uint64_t seed,
                       std::size_t width = 8);

}  // namespace saps::nn
