#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace saps::data {
namespace {

TEST(Dataset, InvariantChecks) {
  EXPECT_THROW(Dataset({2}, {1.0f, 2.0f, 3.0f}, {0, 1}, 2),
               std::invalid_argument);  // features/labels mismatch
  EXPECT_THROW(Dataset({2}, {1.0f, 2.0f}, {5}, 2),
               std::invalid_argument);  // label out of range
  EXPECT_THROW(Dataset({2}, {1.0f, 2.0f}, {0}, 0),
               std::invalid_argument);  // zero classes
}

TEST(Dataset, Gather) {
  Dataset d({2}, {1, 2, 3, 4, 5, 6}, {0, 1, 0}, 2);
  const std::vector<std::size_t> idx = {2, 0};
  Tensor x;
  std::vector<std::int32_t> y;
  d.gather(idx, x, y);
  EXPECT_EQ(x.dim(0), 2u);
  EXPECT_FLOAT_EQ(x.at2(0, 0), 5.0f);
  EXPECT_EQ(y[0], 0);
}

TEST(BatchSampler, CoversEveryIndexEachEpoch) {
  const auto d = make_blobs(100, 4, 5, 0.5, 1);
  BatchSampler sampler(d, 7, 2);
  // One epoch = ceil(100/7) = 15 batches; track label multiset via samples.
  Tensor x;
  std::vector<std::int32_t> y;
  std::size_t seen = 0;
  for (std::size_t b = 0; b < sampler.batches_per_epoch(); ++b) {
    sampler.next(x, y);
    seen += y.size();
  }
  EXPECT_EQ(seen, 100u);
}

TEST(BatchSampler, DeterministicForSeed) {
  const auto d = make_blobs(50, 4, 5, 0.5, 1);
  BatchSampler a(d, 8, 3), b(d, 8, 3);
  Tensor xa, xb;
  std::vector<std::int32_t> ya, yb;
  for (int i = 0; i < 10; ++i) {
    a.next(xa, ya);
    b.next(xb, yb);
    EXPECT_EQ(ya, yb);
  }
}

TEST(BatchSampler, IndexViewDrawsTheBatchesOfACopy) {
  // A sampler over a shard's index list must draw, batch for batch, what a
  // sampler over a copy of those samples draws: the same RNG stream, the
  // same order, the same bytes.
  const auto d = make_blobs(60, 4, 5, 0.5, 1);
  std::vector<std::size_t> idx;
  for (std::size_t i = d.size(); i >= 3; i -= 3) idx.push_back(i - 1);
  Tensor all;
  std::vector<std::int32_t> labels;
  d.gather(idx, all, labels);
  const Dataset copy(d.sample_shape(),
                     std::vector<float>(all.span().begin(), all.span().end()),
                     labels, d.num_classes());
  BatchSampler view(d, idx, 7, 3), owned(copy, 7, 3);
  EXPECT_EQ(view.batches_per_epoch(), owned.batches_per_epoch());
  Tensor xv, xo;
  std::vector<std::int32_t> yv, yo;
  for (int i = 0; i < 12; ++i) {  // four epochs: reshuffles included
    view.next(xv, yv);
    owned.next(xo, yo);
    ASSERT_EQ(yv, yo) << "batch " << i;
    ASSERT_TRUE(std::equal(xv.span().begin(), xv.span().end(),
                           xo.span().begin(), xo.span().end()))
        << "batch " << i;
  }
}

TEST(BatchSampler, RestoredStateDrawsTheSameNextEpochs) {
  // A sampler rebuilt from a saved state (epoch index and cursor) must
  // draw what the original draws next: after k whole epochs plus none,
  // some or all of the next epoch's batches ("all" leaves a reshuffle
  // pending), for the next two epochs.
  const auto d = make_blobs(60, 4, 5, 0.5, 1);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); i += 2) idx.push_back(i);
  // 30 samples in batches of 7: five batches an epoch.
  constexpr std::size_t kBatch = 7, kPerEpoch = 5;
  ASSERT_EQ(BatchSampler(d, idx, kBatch, 3).batches_per_epoch(), kPerEpoch);
  Tensor xa, xb;
  std::vector<std::int32_t> ya, yb;
  for (const std::size_t k : {0u, 1u, 3u}) {
    for (const std::size_t extra : {0u, 2u, 5u}) {  // none, some, all
      SCOPED_TRACE(std::to_string(k) + " epochs + " + std::to_string(extra));
      BatchSampler original(d, idx, kBatch, 3);
      for (std::size_t b = 0; b < k * kPerEpoch + extra; ++b) {
        original.next(xa, ya);
      }
      BatchSampler restored(d, idx, kBatch, 3, original.save_state());
      for (std::size_t b = 0; b < 2 * kPerEpoch; ++b) {
        original.next(xa, ya);
        restored.next(xb, yb);
        ASSERT_EQ(ya, yb) << "batch " << b;
        ASSERT_TRUE(std::equal(xa.span().begin(), xa.span().end(),
                               xb.span().begin(), xb.span().end()))
            << "batch " << b;
      }
    }
  }
  const BatchSampler::State past_end{.epoch = 0, .cursor = 31};
  EXPECT_THROW(BatchSampler(d, idx, kBatch, 3, past_end),
               std::invalid_argument);
}

TEST(Synthetic, BlobsShapesAndDeterminism) {
  const auto a = make_blobs(60, 5, 3, 0.2, 9);
  const auto b = make_blobs(60, 5, 3, 0.2, 9);
  EXPECT_EQ(a.size(), 60u);
  EXPECT_EQ(a.num_classes(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(a.sample(i)[0], b.sample(i)[0]);
  }
}

TEST(Synthetic, MnistLikeShape) {
  const auto d = make_mnist_like(40, 3, 28, 10);
  EXPECT_EQ(d.sample_shape(), (std::vector<std::size_t>{1, 28, 28}));
  EXPECT_EQ(d.num_classes(), 10u);
  // Balanced labels by construction.
  std::vector<int> counts(10, 0);
  for (std::size_t i = 0; i < d.size(); ++i) ++counts[d.label(i)];
  for (const auto c : counts) EXPECT_EQ(c, 4);
}

TEST(Synthetic, CifarLikeShape) {
  const auto d = make_cifar_like(20, 3, 32, 10);
  EXPECT_EQ(d.sample_shape(), (std::vector<std::size_t>{3, 32, 32}));
  EXPECT_EQ(d.sample_dim(), 3u * 32 * 32);
}

TEST(Synthetic, MnistLikeIsLearnable) {
  // A linear probe beats chance by a wide margin — the stand-in dataset has
  // usable class structure (substitution sanity check, docs/ARCHITECTURE.md
  // "Synthetic stand-ins").
  const auto train = make_mnist_like(600, 17, 14, 10);
  auto model = nn::make_logreg({1, 14, 14}, 10, 5);
  nn::Sgd sgd({.lr = 0.05});
  BatchSampler sampler(train, 32, 7);
  Tensor x;
  std::vector<std::int32_t> y;
  for (int step = 0; step < 400; ++step) {
    sampler.next(x, y);
    model.zero_grad();
    model.train_batch(x, y);
    sgd.step(model.parameters(), model.gradients());
  }
  const auto test = make_mnist_like(200, 17, 14, 10);  // same templates
  std::vector<std::size_t> idx(test.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  test.gather(idx, x, y);
  const auto r = model.evaluate_batch(x, y);
  EXPECT_GT(static_cast<double>(r.correct) / static_cast<double>(test.size()),
            0.5);  // chance = 0.1
}

TEST(Partition, IidCoversAllSamplesOnce) {
  const auto d = make_blobs(103, 4, 5, 0.5, 2);
  const auto parts = iid_partition(d, 8, 3);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& p : parts) {
    total += p.size();
    seen.insert(p.begin(), p.end());
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(seen.size(), 103u);
  // Balanced within ±1.
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), 103u / 8);
    EXPECT_LE(p.size(), 103u / 8 + 1);
  }
}

TEST(Partition, ShardLimitsClassesPerWorker) {
  const auto d = make_blobs(400, 4, 10, 0.5, 3);
  const auto parts = shard_partition(d, 10, 2, 4);
  std::size_t total = 0;
  for (const auto& p : parts) {
    total += p.size();
    std::set<std::int32_t> classes;
    for (const auto i : p) classes.insert(d.label(i));
    // 2 shards of a label-sorted split touch at most 4 distinct classes
    // (each shard can straddle one boundary).
    EXPECT_LE(classes.size(), 4u);
  }
  EXPECT_EQ(total, 400u);
}

TEST(Partition, DirichletCoversAllAndNonEmpty) {
  const auto d = make_blobs(300, 4, 6, 0.5, 5);
  const auto parts = dirichlet_partition(d, 12, 0.3, 6);
  std::set<std::size_t> seen;
  for (const auto& p : parts) {
    EXPECT_FALSE(p.empty());
    seen.insert(p.begin(), p.end());
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(Partition, DirichletSkewGrowsAsAlphaShrinks) {
  const auto d = make_blobs(1000, 4, 10, 0.5, 7);
  auto skew = [&](double alpha) {
    const auto parts = dirichlet_partition(d, 10, alpha, 8);
    // Mean over workers of (max class share).
    double total_skew = 0.0;
    for (const auto& p : parts) {
      std::vector<double> counts(10, 0.0);
      for (const auto i : p) counts[d.label(i)] += 1.0;
      const double mx = *std::max_element(counts.begin(), counts.end());
      total_skew += mx / static_cast<double>(p.size());
    }
    return total_skew / 10.0;
  };
  EXPECT_GT(skew(0.05), skew(10.0));
}

TEST(Partition, DirichletLabelDistributionGolden) {
  // Pins the exact per-worker label histogram for a fixed (dataset, workers,
  // alpha, seed) tuple: the dirichlet partitioner feeds the spec's
  // `partition=dirichlet:ALPHA` path, and a silent reshuffle would move
  // every non-IID result in the sweep benches.
  const auto d = make_blobs(60, 4, 4, 0.5, 9);
  const auto parts = dirichlet_partition(d, 3, 0.5, 42);
  ASSERT_EQ(parts.size(), 3u);
  std::vector<std::vector<int>> counts(3, std::vector<int>(4, 0));
  for (std::size_t w = 0; w < parts.size(); ++w) {
    for (const auto i : parts[w]) ++counts[w][d.label(i)];
  }
  const std::vector<std::vector<int>> golden = {
      {0, 2, 1, 0}, {6, 12, 10, 14}, {9, 1, 4, 1}};
  EXPECT_EQ(counts, golden);
}

TEST(Partition, RejectsBadArguments) {
  const auto d = make_blobs(10, 2, 2, 0.5, 1);
  EXPECT_THROW(iid_partition(d, 0, 1), std::invalid_argument);
  EXPECT_THROW(iid_partition(d, 11, 1), std::invalid_argument);
  EXPECT_THROW(shard_partition(d, 2, 0, 1), std::invalid_argument);
  EXPECT_THROW(dirichlet_partition(d, 2, 0.0, 1), std::invalid_argument);
}

class PartitionWorkersTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionWorkersTest, EveryWorkerGetsData) {
  const std::size_t workers = GetParam();
  const auto d = make_blobs(64 * workers, 4, 4, 0.5, 11);
  for (const auto& parts :
       {iid_partition(d, workers, 1), shard_partition(d, workers, 2, 1),
        dirichlet_partition(d, workers, 0.5, 1)}) {
    ASSERT_EQ(parts.size(), workers);
    for (const auto& p : parts) EXPECT_FALSE(p.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, PartitionWorkersTest,
                         ::testing::Values(2, 3, 8, 14, 32));

}  // namespace
}  // namespace saps::data
