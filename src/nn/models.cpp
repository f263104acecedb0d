#include "nn/models.hpp"

#include <memory>
#include <numeric>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace saps::nn {

namespace {
std::size_t flat_dim(const std::vector<std::size_t>& shape) {
  return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                         std::multiplies<>());
}
}  // namespace

Model make_mlp(std::vector<std::size_t> input_shape,
               const std::vector<std::size_t>& hidden, std::size_t classes,
               std::uint64_t seed) {
  Model m;
  std::size_t in = flat_dim(input_shape);
  m.add(std::make_unique<Flatten>());
  for (const auto h : hidden) {
    m.add(std::make_unique<Linear>(in, h));
    m.add(std::make_unique<ReLU>());
    in = h;
  }
  m.add(std::make_unique<Linear>(in, classes));
  m.build(std::move(input_shape), seed);
  return m;
}

namespace {
/// Shared 2×(conv5x5+pool) + 2×fc builder for the two paper CNNs.
Model make_mcmahan_cnn(std::size_t channels, std::size_t img,
                       std::size_t hidden, std::uint64_t seed) {
  Model m;
  m.add(std::make_unique<Conv2d>(channels, 32, 5, 1, 2));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Conv2d>(32, 64, 5, 1, 2));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Flatten>());
  const std::size_t flat = 64 * (img / 4) * (img / 4);
  m.add(std::make_unique<Linear>(flat, hidden));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Linear>(hidden, 10));
  m.build({channels, img, img}, seed);
  return m;
}
}  // namespace

Model make_mnist_cnn(std::uint64_t seed, std::size_t hidden) {
  return make_mcmahan_cnn(1, 28, hidden, seed);
}

Model make_cifar_cnn(std::uint64_t seed, std::size_t hidden) {
  return make_mcmahan_cnn(3, 32, hidden, seed);
}

Model make_resnet20(std::uint64_t seed, std::size_t classes) {
  Model m;
  m.add(std::make_unique<Conv2d>(3, 16, 3, 1, 1, /*bias=*/false));
  m.add(std::make_unique<BatchNorm2d>(16));
  m.add(std::make_unique<ReLU>());
  const std::size_t widths[3] = {16, 32, 64};
  std::size_t in_ch = 16;
  for (std::size_t stage = 0; stage < 3; ++stage) {
    for (std::size_t block = 0; block < 3; ++block) {
      const std::size_t stride = (stage > 0 && block == 0) ? 2 : 1;
      m.add(std::make_unique<ResidualBlock>(in_ch, widths[stage], stride));
      in_ch = widths[stage];
    }
  }
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(64, classes));
  m.build({3, 32, 32}, seed);
  return m;
}

Model make_tiny_cnn(std::size_t channels, std::size_t img, std::size_t classes,
                    std::uint64_t seed, std::size_t width, std::size_t hidden) {
  if (img % 4 != 0) {
    throw std::invalid_argument("make_tiny_cnn: img must be divisible by 4");
  }
  Model m;
  m.add(std::make_unique<Conv2d>(channels, width, 3, 1, 1));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Conv2d>(width, width * 2, 3, 1, 1));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Flatten>());
  const std::size_t flat = width * 2 * (img / 4) * (img / 4);
  m.add(std::make_unique<Linear>(flat, hidden));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Linear>(hidden, classes));
  m.build({channels, img, img}, seed);
  return m;
}

Model make_tiny_resnet(std::size_t channels, std::size_t img,
                       std::size_t classes, std::uint64_t seed,
                       std::size_t width) {
  Model m;
  m.add(std::make_unique<Conv2d>(channels, width, 3, 1, 1, /*bias=*/false));
  m.add(std::make_unique<BatchNorm2d>(width));
  m.add(std::make_unique<ReLU>());
  std::size_t in_ch = width;
  for (std::size_t stage = 0; stage < 3; ++stage) {
    const std::size_t out_ch = width << stage;
    const std::size_t stride = stage > 0 ? 2 : 1;
    m.add(std::make_unique<ResidualBlock>(in_ch, out_ch, stride));
    in_ch = out_ch;
  }
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(in_ch, classes));
  m.build({channels, img, img}, seed);
  return m;
}

}  // namespace saps::nn
