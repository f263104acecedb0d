// Worker churn (dropout/rejoin) generalized beyond SAPS: every registered
// algorithm accepts a `failures=` schedule through the Scenario API, and the
// declarative path must be BIT-identical to hand-wired engine.set_active
// flips (the pattern integration_test pins for SAPS).  The suite also
// hardens the wire layer: a corrupted frame of ANY message type must throw a
// std exception from decode() — never crash, never allocate by a garbage
// count field.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/d_psgd.hpp"
#include "algos/fedavg.hpp"
#include "algos/psgd.hpp"
#include "algos/qsgd_psgd.hpp"
#include "algos/topk_psgd.hpp"
#include "net/wire.hpp"
#include "scenario/runner.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

// Workers 2 and 5 drop at round 3; worker 2 rejoins at round 7, worker 5
// never comes back.  Rounds are the 0-based algorithm rounds the Dynamics
// hook receives.
constexpr std::size_t kDrop = 3, kRejoin = 7;

algos::Dynamics manual_churn() {
  algos::Dynamics dyn;
  dyn.on_round = [](std::size_t round, sim::Engine& eng) {
    eng.set_active(2, !(round >= kDrop && round < kRejoin));
    eng.set_active(5, round < kDrop);
  };
  return dyn;
}

// The same schedule, declaratively: matches manual_churn through the
// FailureEvent grammar (rejoin_round == 0 means "never rejoins").
scenario::ScenarioSpec churn_spec() {
  scenario::ScenarioSpec spec;
  spec.set("workload", "blob");
  // Mirrors test_util::BlobSpec{} so the manual twin's engine is identical.
  spec.set("blob-train", "640");
  spec.set("blob-test", "160");
  spec.set("blob-features", "8");
  spec.set("blob-classes", "4");
  spec.set("blob-noise", "0.3");
  spec.set("blob-data-seed", "300");
  spec.set("blob-hidden", "16");
  spec.set("workers", "8");
  spec.set("epochs", "2");
  spec.set("batch", "16");
  spec.set("lr", "0.1");
  spec.set("seed", "42");
  spec.set("failures", "2@3-7,5@3");
  // Pinned explicitly so the manual algorithm configs below stay in sync.
  spec.set("dcd-c", "4");
  spec.set("topk-c", "20");
  spec.set("qsgd-levels", "4");
  spec.set("fedavg-frac", "0.5");
  spec.set("fedavg-steps", "1");
  spec.set("sfedavg-c", "5");
  spec.threads = test_util::env_threads();
  return spec;
}

void check_spec_matches_manual(const std::string& key,
                               std::unique_ptr<algos::Algorithm> manual) {
  SCOPED_TRACE(key);
  scenario::Runner runner(churn_spec());
  const auto from_spec = runner.run(key);

  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  auto engine = test_util::blob_engine(cfg);
  const auto manual_result = manual->run(engine);

  ASSERT_EQ(from_spec.result.history.size(), manual_result.history.size());
  for (std::size_t i = 0; i < manual_result.history.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(from_spec.result.history[i].loss,
              manual_result.history[i].loss);
    EXPECT_EQ(from_spec.result.history[i].accuracy,
              manual_result.history[i].accuracy);
    EXPECT_EQ(from_spec.result.history[i].worker_mb,
              manual_result.history[i].worker_mb);
    EXPECT_EQ(from_spec.result.history[i].comm_seconds,
              manual_result.history[i].comm_seconds);
  }
}

TEST(Churn, PsgdSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual(
      "psgd", std::make_unique<algos::PsgdAllReduce>(manual_churn()));
}

TEST(Churn, DPsgdSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual("dpsgd",
                            std::make_unique<algos::DPsgd>(manual_churn()));
}

TEST(Churn, DcdSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual(
      "dcd", std::make_unique<algos::DcdPsgd>(
                 algos::DcdConfig{.compression = 4.0}, manual_churn()));
}

TEST(Churn, TopkSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual(
      "topk", std::make_unique<algos::TopkPsgd>(
                  algos::TopkConfig{.compression = 20.0}, manual_churn()));
}

TEST(Churn, QsgdSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual(
      "qsgd", std::make_unique<algos::QsgdPsgd>(
                  algos::QsgdConfig{.levels = 4}, manual_churn()));
}

TEST(Churn, FedAvgSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual(
      "fedavg",
      std::make_unique<algos::FedAvg>(
          algos::FedAvgConfig{.fraction = 0.5, .local_steps = 1},
          manual_churn()));
}

TEST(Churn, SparseFedAvgSpecFailuresMatchManualSetActiveWiring) {
  check_spec_matches_manual(
      "sfedavg",
      std::make_unique<algos::FedAvg>(
          algos::FedAvgConfig{.fraction = 0.5,
                              .local_steps = 1,
                              .upload_compression = 5.0},
          manual_churn()));
}

TEST(Churn, EveryAlgorithmStillLearnsUnderChurn) {
  scenario::Runner runner(churn_spec());
  for (const auto& key : scenario::Registry::instance().algorithm_keys()) {
    SCOPED_TRACE(key);
    const auto rec = runner.run(key);
    // Two of eight workers churn; with one never returning the run must
    // still complete and train meaningfully above chance (4 classes).
    EXPECT_GT(rec.result.final().accuracy, 0.4);
  }
}

TEST(Churn, EveryAlgorithmRunsThroughALoneActiveWorker) {
  // Three of four workers are away for rounds [2, 6): worker 0 trains alone.
  auto spec = churn_spec();
  spec.set("workers", "4");
  spec.set("epochs", "1");
  spec.set("failures", "1@2-6,2@2-6,3@2-6");
  spec.set("eval-every", "1");
  scenario::Runner runner(spec);
  for (const auto& key : scenario::Registry::instance().algorithm_keys()) {
    SCOPED_TRACE(key);
    const auto rec = runner.run(key);
    const auto& history = rec.result.history;
    ASSERT_GE(history.size(), 7u);
    if (key == "fedavg" || key == "sfedavg") continue;  // server traffic
    // A lone worker has no peer to exchange with: the points after rounds
    // 2..5 carry the traffic of the point after round 1.
    for (std::size_t point = 3; point <= 6; ++point) {
      EXPECT_EQ(history[point].worker_mb, history[2].worker_mb)
          << "point " << point;
    }
  }
}

TEST(Churn, PsgdOpensAnEmptyFabricRoundWhileEveryWorkerIsAway) {
  // Fault windows and straggler draws count fabric rounds, so a PSGD round
  // with nobody active still opens one; a lone worker's round opens none.
  algos::Dynamics dyn;
  dyn.on_round = [](std::size_t round, sim::Engine& eng) {
    const bool everyone_away = round >= 2 && round < 4;
    const bool alone = round >= 6 && round < 8;
    for (std::size_t w = 0; w < eng.workers(); ++w) {
      eng.set_active(w, !everyone_away && !(alone && w > 0));
    }
  };
  sim::SimConfig cfg;
  cfg.workers = 4;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  auto engine = test_util::blob_engine(cfg);
  algos::PsgdAllReduce algo(std::move(dyn));
  (void)algo.run(engine);
  EXPECT_EQ(engine.network().rounds(), engine.steps_per_epoch() - 2);
}

// --- corrupted-frame hardening ----------------------------------------------

// Every wire type's encoded frame, on a miniature payload.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> all_frames() {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> frames;
  frames.emplace_back("NotifyMsg", net::NotifyMsg{.round = 3,
                                                  .mask_seed = 99,
                                                  .peer = 1}
                                       .encode());
  frames.emplace_back("RoundEndMsg",
                      net::RoundEndMsg{.round = 3, .rank = 2}.encode());
  frames.emplace_back(
      "MaskedModelMsg",
      net::MaskedModelMsg{
          .mask_seed = 7, .round = 3, .values = {1.0f, -2.0f, 0.5f}}
          .encode());
  frames.emplace_back("SparseDeltaMsg",
                      net::SparseDeltaMsg{.round = 3,
                                          .origin = 1,
                                          .indices = {0, 4, 9},
                                          .values = {1.0f, 2.0f, 3.0f}}
                          .encode());
  frames.emplace_back(
      "FullModelMsg",
      net::FullModelMsg{.rank = 2, .params = {0.1f, 0.2f, 0.3f}}.encode());
  frames.emplace_back("QuantGradMsg",
                      net::QuantGradMsg{.round = 3,
                                        .origin = 1,
                                        .norm = 2.5f,
                                        .levels = 4,
                                        .quantized = {-4, 0, 3, 1}}
                          .encode());
  return frames;
}

// Dispatch a raw buffer to the decoder matching its NAME (not its type
// byte — the type byte is part of what gets corrupted).
void decode_as(const std::string& name,
               std::span<const std::uint8_t> bytes) {
  if (name == "NotifyMsg") {
    (void)net::NotifyMsg::decode(bytes);
  } else if (name == "RoundEndMsg") {
    (void)net::RoundEndMsg::decode(bytes);
  } else if (name == "MaskedModelMsg") {
    (void)net::MaskedModelMsg::decode(bytes);
  } else if (name == "SparseDeltaMsg") {
    (void)net::SparseDeltaMsg::decode(bytes);
  } else if (name == "FullModelMsg") {
    (void)net::FullModelMsg::decode(bytes);
  } else {
    (void)net::QuantGradMsg::decode(bytes);
  }
}

// (Exhaustive truncation coverage lives in message_plane_test's
// TruncatedDecode suite; here the corruption is WITHIN a full-length frame.)
TEST(WireHardening, WrongTypeByteThrowsForEveryMessageType) {
  for (const auto& [name, frame] : all_frames()) {
    SCOPED_TRACE(name);
    auto bad = frame;
    bad[0] = static_cast<std::uint8_t>(bad[0] == 1 ? 2 : 1);  // other type
    EXPECT_THROW(decode_as(name, bad), std::invalid_argument);
    bad[0] = 0xEE;  // not a type at all
    EXPECT_THROW(decode_as(name, bad), std::invalid_argument);
  }
}

TEST(WireHardening, GarbageCountFieldsThrowWithoutAllocating) {
  // Overwrite each counted type's count field with 0xFFFFFFFF: decode must
  // reject the frame (the declared count exceeds the payload) instead of
  // resizing to 4 billion elements.
  const auto poison_count = [](std::vector<std::uint8_t> frame,
                               std::size_t offset) {
    for (std::size_t i = 0; i < 4; ++i) frame[offset + i] = 0xFF;
    return frame;
  };
  const auto sparse = net::SparseDeltaMsg{.round = 3,
                                          .origin = 1,
                                          .indices = {0, 4, 9},
                                          .values = {1.0f, 2.0f, 3.0f}}
                          .encode();
  EXPECT_THROW(
      (void)net::SparseDeltaMsg::decode(poison_count(sparse, 12)),
      std::out_of_range);
  const auto full =
      net::FullModelMsg{.rank = 2, .params = {0.1f, 0.2f, 0.3f}}.encode();
  EXPECT_THROW((void)net::FullModelMsg::decode(poison_count(full, 8)),
               std::out_of_range);
  const auto quant = net::QuantGradMsg{.round = 3,
                                       .origin = 1,
                                       .norm = 2.5f,
                                       .levels = 4,
                                       .quantized = {-4, 0, 3, 1}}
                         .encode();
  EXPECT_THROW((void)net::QuantGradMsg::decode(poison_count(quant, 16)),
               std::out_of_range);
}

TEST(WireHardening, AllOnesGarbageBufferThrowsForEveryMessageType) {
  // 64 bytes of 0xFF: wrong type byte everywhere, and for the counted
  // formats an absurd count — no decoder may crash or accept it.
  const std::vector<std::uint8_t> garbage(64, 0xFF);
  for (const auto& [name, frame] : all_frames()) {
    SCOPED_TRACE(name);
    EXPECT_THROW(decode_as(name, garbage), std::exception);
  }
}

}  // namespace
}  // namespace saps
