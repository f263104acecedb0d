// Procedural datasets standing in for MNIST / CIFAR-10 (substitution: the
// real image files are not available offline; see docs/ARCHITECTURE.md,
// "Synthetic stand-ins").
//
// Requirements for a faithful stand-in: same tensor shapes and class counts,
// classes that are separable but not linearly trivial (so optimizer and
// algorithm differences show up in accuracy curves), and deterministic
// generation from a seed so every simulated worker sees the same universe.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace saps::data {

/// Gaussian blobs: `classes` random centers in R^dim, isotropic noise.
/// The workhorse of fast unit tests (linearly separable at small spread).
Dataset make_blobs(std::size_t samples, std::size_t dim, std::size_t classes,
                   double spread, std::uint64_t seed);

/// MNIST-like: (1, img, img) grayscale images.  Each class has a fixed
/// random-walk "stroke" template; samples are the template with random
/// translation, per-pixel noise and amplitude jitter.
Dataset make_mnist_like(std::size_t samples, std::uint64_t seed,
                        std::size_t img = 28, std::size_t classes = 10);

/// CIFAR-like: (3, img, img) color images.  Each class has a fixed oriented
/// sinusoidal grating + color tint; samples add phase shift and noise.
Dataset make_cifar_like(std::size_t samples, std::uint64_t seed,
                        std::size_t img = 32, std::size_t classes = 10);

}  // namespace saps::data
