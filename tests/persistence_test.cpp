// Checkpointing and the MNIST IDX loader (including a synthetic IDX file
// written on the fly, so the loader's parsing is tested without the real
// dataset being present).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/mnist_loader.hpp"
#include "nn/checkpoint.hpp"
#include "nn/models.hpp"

namespace saps {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("saps_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

using CheckpointTest = TempDir;

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  auto model = nn::make_mlp({8}, {16}, 4, 77);
  const auto path = (dir_ / "model.ckpt").string();
  nn::save_checkpoint(path, model.parameters());
  const auto loaded = nn::load_checkpoint(path);
  ASSERT_EQ(loaded.size(), model.param_count());
  const auto p = model.parameters();
  for (std::size_t i = 0; i < loaded.size(); ++i) EXPECT_EQ(loaded[i], p[i]);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW(nn::load_checkpoint((dir_ / "nope.ckpt").string()),
               std::runtime_error);
}

TEST_F(CheckpointTest, CorruptMagicThrows) {
  const auto path = (dir_ / "bad.ckpt").string();
  std::ofstream out(path, std::ios::binary);
  out << "NOTACKPT0000";
  out.close();
  EXPECT_THROW(nn::load_checkpoint(path), std::runtime_error);
}

TEST_F(CheckpointTest, TruncatedPayloadThrows) {
  auto model = nn::make_mlp({4}, {}, 2, 1);
  const auto path = (dir_ / "trunc.ckpt").string();
  nn::save_checkpoint(path, model.parameters());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 6);
  EXPECT_THROW(nn::load_checkpoint(path), std::runtime_error);
}

using MnistLoaderTest = TempDir;

namespace {
void write_be32(std::ofstream& out, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                         static_cast<char>(v >> 8), static_cast<char>(v)};
  out.write(bytes, 4);
}

/// Writes a tiny but well-formed IDX pair: `n` 4x3 images with label i%10.
void write_idx_pair(const std::filesystem::path& images,
                    const std::filesystem::path& labels, std::uint32_t n) {
  std::ofstream img(images, std::ios::binary);
  write_be32(img, 0x803);
  write_be32(img, n);
  write_be32(img, 4);
  write_be32(img, 3);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (int p = 0; p < 12; ++p) {
      img.put(static_cast<char>((i + static_cast<std::uint32_t>(p)) % 256));
    }
  }
  std::ofstream lab(labels, std::ios::binary);
  write_be32(lab, 0x801);
  write_be32(lab, n);
  for (std::uint32_t i = 0; i < n; ++i) lab.put(static_cast<char>(i % 10));
}
}  // namespace

TEST_F(MnistLoaderTest, MissingFilesReturnNullopt) {
  EXPECT_FALSE(data::load_mnist_train(dir_.string()).has_value());
  EXPECT_FALSE(
      data::load_mnist_idx((dir_ / "a").string(), (dir_ / "b").string())
          .has_value());
}

TEST_F(MnistLoaderTest, ParsesWellFormedIdx) {
  const auto img = dir_ / "img", lab = dir_ / "lab";
  write_idx_pair(img, lab, 20);
  const auto d = data::load_mnist_idx(img.string(), lab.string());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), 20u);
  EXPECT_EQ(d->sample_shape(), (std::vector<std::size_t>{1, 4, 3}));
  EXPECT_EQ(d->label(13), 3);
  // Pixel scaling to [0,1]: first image, first pixel is 0/255.
  EXPECT_FLOAT_EQ(d->sample(0)[0], 0.0f);
  EXPECT_NEAR(d->sample(1)[0], 1.0f / 255.0f, 1e-6);
}

TEST_F(MnistLoaderTest, BadMagicThrows) {
  const auto img = dir_ / "img", lab = dir_ / "lab";
  write_idx_pair(img, lab, 4);
  // Corrupt the image magic.
  std::fstream f(img, std::ios::binary | std::ios::in | std::ios::out);
  f.put(0x7F);
  f.close();
  EXPECT_THROW(data::load_mnist_idx(img.string(), lab.string()),
               std::runtime_error);
}

TEST_F(MnistLoaderTest, CountMismatchThrows) {
  const auto img = dir_ / "img", lab = dir_ / "lab";
  write_idx_pair(img, lab, 4);
  // Rewrite labels with a different count.
  std::ofstream relab(lab, std::ios::binary | std::ios::trunc);
  write_be32(relab, 0x801);
  write_be32(relab, 5);
  for (int i = 0; i < 5; ++i) relab.put(1);
  relab.close();
  EXPECT_THROW(data::load_mnist_idx(img.string(), lab.string()),
               std::runtime_error);
}

TEST_F(MnistLoaderTest, TruncatedImagesThrow) {
  const auto img = dir_ / "img", lab = dir_ / "lab";
  write_idx_pair(img, lab, 8);
  std::filesystem::resize_file(img, std::filesystem::file_size(img) - 5);
  EXPECT_THROW(data::load_mnist_idx(img.string(), lab.string()),
               std::runtime_error);
}

// Exercises the loader against the real dataset when present (SAPS_MNIST_DIR
// or ./data/mnist, the same default as examples/train_real_mnist); skips
// cleanly otherwise so CI machines without the data stay green.
TEST(RealMnist, LoadsCanonicalFilesWhenPresent) {
  const char* env = std::getenv("SAPS_MNIST_DIR");
  const std::string dir = env != nullptr ? env : "data/mnist";
  const auto train = data::load_mnist_train(dir);
  if (!train.has_value()) {
    GTEST_SKIP() << "real MNIST not found under '" << dir
                 << "' (set SAPS_MNIST_DIR to enable)";
  }
  const auto test = data::load_mnist_test(dir);
  ASSERT_TRUE(test.has_value());
  EXPECT_EQ(train->size(), 60000u);
  EXPECT_EQ(test->size(), 10000u);
  EXPECT_EQ(train->sample_shape(), (std::vector<std::size_t>{1, 28, 28}));
}

}  // namespace
}  // namespace saps
