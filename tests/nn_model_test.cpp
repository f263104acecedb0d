#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace saps::nn {
namespace {

TEST(Loss, SoftmaxXentKnownValue) {
  // Uniform logits over K classes → loss = log(K).
  Tensor logits({2, 4});
  logits.fill(0.0f);
  const std::vector<std::int32_t> labels = {0, 3};
  Tensor dlogits(logits.shape());
  const double loss = softmax_cross_entropy(logits, labels, dlogits);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
  // Gradient rows sum to 0 (softmax minus one-hot, scaled by 1/B).
  for (std::size_t i = 0; i < 2; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 4; ++j) row += dlogits.at2(i, j);
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(Loss, GradMatchesFiniteDifference) {
  Rng rng(3);
  Tensor logits({3, 5});
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.next_normal());
  }
  const std::vector<std::int32_t> labels = {1, 4, 2};
  Tensor dlogits(logits.shape());
  (void)softmax_cross_entropy(logits, labels, dlogits);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(eps);
    const double fp = softmax_cross_entropy_loss(logits, labels);
    logits[i] = saved - static_cast<float>(eps);
    const double fm = softmax_cross_entropy_loss(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR((fp - fm) / (2 * eps), dlogits[i], 2e-3);
  }
}

TEST(Loss, RejectsBadLabel) {
  Tensor logits({1, 3});
  const std::vector<std::int32_t> labels = {5};
  Tensor d(logits.shape());
  EXPECT_THROW((void)softmax_cross_entropy(logits, labels, d),
               std::invalid_argument);
}

TEST(Loss, CorrectCount) {
  Tensor logits({2, 3}, {0.1f, 0.9f, 0.0f, 0.8f, 0.1f, 0.1f});
  const std::vector<std::int32_t> labels = {1, 2};
  EXPECT_EQ(correct_count(logits, labels), 1u);
}

TEST(Model, DeterministicInitialization) {
  auto a = make_mlp({10}, {16}, 3, 99);
  auto b = make_mlp({10}, {16}, 3, 99);
  ASSERT_EQ(a.param_count(), b.param_count());
  const auto pa = a.parameters(), pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Model, DifferentSeedsDiffer) {
  auto a = make_mlp({10}, {16}, 3, 1);
  auto b = make_mlp({10}, {16}, 3, 2);
  double diff = 0.0;
  const auto pa = a.parameters(), pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    diff += std::abs(pa[i] - pb[i]);
  }
  EXPECT_GT(diff, 0.1);
}

TEST(Model, ParamCounts) {
  // logreg on 784 → 10: 784*10 + 10.
  auto lr = make_mlp({784}, {}, 10, 1);
  EXPECT_EQ(lr.param_count(), 7850u);
  // ResNet-20 ≈ 272k params (paper reports 269,722 for its variant).
  auto rn = make_resnet20(1);
  EXPECT_GT(rn.param_count(), 260000u);
  EXPECT_LT(rn.param_count(), 285000u);
  // MNIST-CNN with hidden=2048 lands near the paper's 6.65M.
  auto mc = make_mnist_cnn(1);
  EXPECT_GT(mc.param_count(), 6000000u);
  EXPECT_LT(mc.param_count(), 7000000u);
}

TEST(Model, MlpLearnsBlobs) {
  const auto train = data::make_blobs(512, 8, 3, 0.3, 42);
  auto model = make_mlp({8}, {32}, 3, 7);
  Sgd sgd({.lr = 0.1});

  Tensor x;
  std::vector<std::int32_t> y;
  data::BatchSampler sampler(train, 32, 5);
  for (int step = 0; step < 300; ++step) {
    sampler.next(x, y);
    model.zero_grad();
    model.train_batch(x, y);
    sgd.step(model.parameters(), model.gradients());
  }

  std::vector<std::size_t> idx(train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Tensor all;
  std::vector<std::int32_t> labels;
  train.gather(idx, all, labels);
  const auto r = model.evaluate_batch(all, labels);
  EXPECT_GT(static_cast<double>(r.correct) / static_cast<double>(train.size()),
            0.95);
}

TEST(Model, TrainReducesLoss) {
  const auto train = data::make_blobs(256, 6, 2, 0.4, 11);
  auto model = make_mlp({6}, {}, 2, 3);
  Sgd sgd({.lr = 0.2});
  Tensor x;
  std::vector<std::int32_t> y;
  data::BatchSampler sampler(train, 64, 9);
  sampler.next(x, y);
  model.zero_grad();
  const double first = model.train_batch(x, y);
  sgd.step(model.parameters(), model.gradients());
  double last = first;
  for (int i = 0; i < 50; ++i) {
    sampler.next(x, y);
    model.zero_grad();
    last = model.train_batch(x, y);
    sgd.step(model.parameters(), model.gradients());
  }
  EXPECT_LT(last, first);
}

TEST(Model, RejectsBadInput) {
  auto model = make_mlp({6}, {}, 2, 3);
  Tensor bad({2, 7});
  std::vector<std::int32_t> y = {0, 1};
  EXPECT_THROW(model.evaluate_batch(bad, y), std::invalid_argument);
}

TEST(Model, RejectsNewSampleShapeAfterWarmCall) {
  // The activation cache is keyed on batch size: a warm model fed another
  // per-sample shape at the same batch size must throw, not run layers
  // into activations sized for the built shape.
  auto model = make_mlp({8}, {16}, 4, 3);
  const std::vector<std::int32_t> y = {0, 1};
  EXPECT_NO_THROW(model.evaluate_batch(Tensor({2, 8}), y));
  EXPECT_THROW(model.evaluate_batch(Tensor({2, 4096}), y),
               std::invalid_argument);
  EXPECT_THROW(model.train_batch(Tensor({2, 4096}), y), std::invalid_argument);
  EXPECT_THROW(model.evaluate_batch(Tensor({2, 8, 1}), y),
               std::invalid_argument);
  EXPECT_NO_THROW(model.train_batch(Tensor({2, 8}), y));
}

TEST(Model, TinyModelsBuild) {
  auto cnn = make_tiny_cnn(1, 12, 10, 5);
  EXPECT_GT(cnn.param_count(), 1000u);
  auto rn = make_tiny_resnet(1, 16, 10, 5);
  EXPECT_GT(rn.param_count(), 1000u);
  Tensor x({2, 1, 12, 12});
  std::vector<std::int32_t> y = {0, 1};
  EXPECT_NO_THROW(cnn.evaluate_batch(x, y));
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// A model bound to another model's state trains exactly as the owner does
// through its own layers: the same loss, gradients, batch-norm running
// statistics and updated parameters, step after step.  The computing model
// is built from another seed, so nothing it owns can stand in for the
// bound state.
void expect_bound_training_matches_owner(
    const std::function<Model(std::uint64_t)>& make) {
  auto owner = make(7);
  auto state = make(7);
  auto executor = make(8);
  Sgd owner_sgd({.lr = 0.05, .momentum = 0.9});
  Sgd state_sgd({.lr = 0.05, .momentum = 0.9});
  Rng rng(9);
  for (int step = 0; step < 3; ++step) {
    Tensor x({6, 3, 16, 16});
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.next_normal());
    }
    std::vector<std::int32_t> y(6);
    for (auto& label : y) label = static_cast<std::int32_t>(rng() % 10);

    owner.zero_grad();
    const double want = owner.train_batch(x, y);
    owner_sgd.step(owner.parameters(), owner.gradients());

    executor.bind(state.parameters(), state.gradients(), state.buffers());
    EXPECT_EQ(executor.parameters().data(), state.parameters().data());
    executor.zero_grad();
    const double got = executor.train_batch(x, y);
    state_sgd.step(state.parameters(), state.gradients());

    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "step " << step;
    EXPECT_TRUE(same_bits(state.gradients(), owner.gradients()));
    EXPECT_TRUE(same_bits(state.buffers(), owner.buffers()));
    EXPECT_TRUE(same_bits(state.parameters(), owner.parameters()));
  }
}

TEST(Model, BoundTinyCnnTrainsLikeTheOwner) {
  expect_bound_training_matches_owner(
      [](std::uint64_t seed) { return make_tiny_cnn(3, 16, 10, seed); });
}

TEST(Model, BoundTinyResnetTrainsLikeTheOwner) {
  // Covers the batch-norm running statistics bound inside residual blocks.
  expect_bound_training_matches_owner(
      [](std::uint64_t seed) { return make_tiny_resnet(3, 16, 10, seed); });
}

TEST(Model, BindRejectsWrongSpanSizes) {
  auto model = make_tiny_resnet(3, 16, 10, 11);
  auto other = make_tiny_resnet(3, 16, 10, 12);
  const auto p = other.parameters(), g = other.gradients(), b = other.buffers();
  ASSERT_GT(b.size(), 0u);
  EXPECT_THROW(model.bind(p.first(p.size() - 1), g, b), std::invalid_argument);
  EXPECT_THROW(model.bind(p, g.first(g.size() - 1), b), std::invalid_argument);
  EXPECT_THROW(model.bind(p, g, b.first(b.size() - 1)), std::invalid_argument);
  EXPECT_THROW(model.set_buffers(b.first(b.size() - 1)),
               std::invalid_argument);
  // A rejected bind leaves the model on its own state.
  EXPECT_NE(model.parameters().data(), p.data());
  EXPECT_NO_THROW(model.bind(p, g, b));
  EXPECT_EQ(model.buffers().data(), b.data());
}

TEST(Sgd, MilestoneSchedule) {
  Sgd sgd({.lr = 1.0, .decay_epochs = {10, 20}, .decay_factor = 0.1});
  EXPECT_DOUBLE_EQ(sgd.lr_at_epoch(0), 1.0);
  EXPECT_DOUBLE_EQ(sgd.lr_at_epoch(9), 1.0);
  EXPECT_DOUBLE_EQ(sgd.lr_at_epoch(10), 0.1);
  EXPECT_NEAR(sgd.lr_at_epoch(25), 0.01, 1e-12);
}

TEST(Sgd, PlainStep) {
  Sgd sgd({.lr = 0.5});
  std::vector<float> p = {1.0f}, g = {2.0f};
  sgd.step(p, g);
  EXPECT_FLOAT_EQ(p[0], 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  Sgd sgd({.lr = 1.0, .momentum = 0.5});
  std::vector<float> p = {0.0f}, g = {1.0f};
  sgd.step(p, g);  // v=1, p=-1
  sgd.step(p, g);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(p[0], -2.5f);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  Sgd sgd({.lr = 0.1, .weight_decay = 1.0});
  std::vector<float> p = {1.0f}, g = {0.0f};
  sgd.step(p, g);
  EXPECT_FLOAT_EQ(p[0], 0.9f);
}

TEST(Sgd, RejectsBadConfig) {
  EXPECT_THROW(Sgd({.lr = 0.0}), std::invalid_argument);
  EXPECT_THROW(Sgd({.lr = 0.1, .momentum = 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace saps::nn
