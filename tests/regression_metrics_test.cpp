// Message-plane regression gate: default (zero-latency, uniform-compute)
// runs of all seven algorithms must reproduce the PRE-REFACTOR accounting
// bit-for-bit.  The golden numbers below were captured from the seed tree
// (hand-computed byte constants fed straight into the old NetworkSim) on the
// exact workload built here; the fabric path — encoded wire messages,
// wire_bytes() charging, staged transfer application, event-driven link
// model — must land on identical traffic, communication time, accuracy and
// loss.  A nonzero-latency configuration must strictly lengthen
// comm_seconds, and the control-plane ledger must match the coordinator's.
// Every golden run also pins its whole metric history (every field of every
// eval point, hashed), so the eval cadence and the epoch column are pinned
// too, not only the final point.  The history digests were captured, serial
// and on a 4-thread pool, before FedAvg, S-FedAvg and SAPS-PSGD handed their
// rounds to the shared round driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "algos/d_psgd.hpp"
#include "algos/fedavg.hpp"
#include "algos/psgd.hpp"
#include "algos/qsgd_psgd.hpp"
#include "algos/topk_psgd.hpp"
#include "core/saps.hpp"
#include "data/synthetic.hpp"
#include "net/bandwidth.hpp"
#include "nn/models.hpp"
#include "scenario/runner.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// FNV-1a over `size` bytes at `data`, continuing from `hash`.
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv1a(std::span<const float> values, std::uint64_t hash) {
  return fnv1a(values.data(), values.size_bytes(), hash);
}

// FNV-1a over every field of every point of a metric history, in order:
// round (as 64 bits), epoch, loss, accuracy, worker_mb, comm_seconds.
std::uint64_t history_digest(const std::vector<sim::MetricPoint>& history) {
  std::uint64_t hash = kFnvBasis;
  const auto add = [&](const auto& v) { hash = fnv1a(&v, sizeof v, hash); };
  for (const auto& p : history) {
    add(static_cast<std::uint64_t>(p.round));
    add(p.epoch);
    add(p.loss);
    add(p.accuracy);
    add(p.worker_mb);
    add(p.comm_seconds);
  }
  return hash;
}

struct Golden {
  double accuracy;       // final eval accuracy
  double loss;           // final eval loss
  double mean_bytes;     // LinkModel::mean_worker_bytes at end of run
  double worker1_bytes;  // LinkModel::worker_bytes(1)
  double seconds;        // LinkModel::total_seconds
  std::uint64_t history;  // history_digest of the run's metric history
};

// Captured from the pre-refactor tree (PR 2 head) with the workload below;
// hexfloat so the comparison is bit-exact.  The LOSS column was recaptured
// exactly once for PR 4's blocked-FMA kernel layer (tensor/gemm.cpp): fused
// multiply-add rounds each GEMM element once instead of twice, moving the
// final losses by a few ULPs.  Accuracy, per-worker traffic and round time
// are bit-identical to the pre-refactor tree — pinning that the kernel and
// pre-encoded ring changes altered no accounting.
const std::map<std::string, Golden> kGoldens = {
    {"psgd", {0x1.f333333333333p-1, 0x1.bada57a990dbap-2, 0x1.09p+15,
              0x1.09p+15, 0x1.14f79f73fa38bp-6, 0x3fd326e9a930a167ULL}},
    {"topk", {0x1.fp-1, 0x1.d720aca9df88ep-2, 0x1.68p+14, 0x1.68p+14,
              0x1.7841e71b239ecp-7, 0xe142d7e3740beb50ULL}},
    {"qsgd", {0x1.f333333333333p-1, 0x1.acc8b35fa362bp-2, 0x1.a04p+13,
              0x1.a04p+13, 0x1.b30c3337612f9p-8, 0x24e9a448ebb77276ULL}},
    {"fedavg", {0x1.f333333333333p-1, 0x1.b1b023923b73bp-2, 0x1.a8p+10,
                0x1.a8p+10, 0x1.93cc6ee37323ap-11, 0x8ca08536c2cba810ULL}},
    {"sfedavg", {0x1.e333333333333p-1, 0x1.0d7c73946811cp-2, 0x1.08p+10,
                 0x1.0ep+10, 0x1.f7dd4f96a727p-12, 0x9e7bf08369954386ULL}},
    {"dpsgd", {0x1.f333333333333p-1, 0x1.bab769e097035p-2, 0x1.09p+16,
               0x1.09p+16, 0x1.14f79f73fa38bp-6, 0xf7411219b86b5e18ULL}},
    {"dcd", {0x1.f333333333333p-1, 0x1.ba77cbdbdea18p-2, 0x1.13p+15,
             0x1.13p+15, 0x1.1f6b3b34bb362p-7, 0xf993b1266d6b9716ULL}},
    {"saps", {0x1.f333333333333p-1, 0x1.bd9783f1b100dp-2, 0x1.1acp+12,
              0x1.0d8p+12, 0x1.280e5129e7245p-9, 0x0e7b4656584d6d41ULL}},
};

sim::Engine make_engine(double latency = 0.0, double jitter = 0.0) {
  sim::SimConfig cfg;
  cfg.workers = 4;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.link_latency_seconds = latency;
  cfg.compute_jitter_seconds = jitter;
  auto bw = net::random_uniform_bandwidth(cfg.workers, 123);
  // Thread-count invariance is enforced elsewhere; honoring SAPS_THREADS
  // here runs the whole suite over the pool in the sanitizer CI pass.
  return test_util::blob_engine(cfg, test_util::BlobSpec{}, std::move(bw));
}

std::unique_ptr<algos::Algorithm> make_algorithm(const std::string& key) {
  if (key == "psgd") return std::make_unique<algos::PsgdAllReduce>();
  if (key == "topk") {
    return std::make_unique<algos::TopkPsgd>(
        algos::TopkConfig{.compression = 10.0});
  }
  if (key == "qsgd") {
    return std::make_unique<algos::QsgdPsgd>(algos::QsgdConfig{.levels = 4});
  }
  if (key == "fedavg") {
    return std::make_unique<algos::FedAvg>(
        algos::FedAvgConfig{.fraction = 0.5});
  }
  if (key == "sfedavg") {
    return std::make_unique<algos::FedAvg>(
        algos::FedAvgConfig{.fraction = 0.5, .upload_compression = 5.0});
  }
  if (key == "dpsgd") return std::make_unique<algos::DPsgd>();
  if (key == "dcd") {
    return std::make_unique<algos::DcdPsgd>(
        algos::DcdConfig{.compression = 4.0});
  }
  if (key == "saps") {
    return std::make_unique<core::SapsPsgd>(
        core::SapsConfig{.compression = 10.0});
  }
  throw std::invalid_argument("unknown key " + key);
}

TEST(MessagePlaneRegression, AllSevenAlgorithmsMatchSeedAccountingBitForBit) {
  for (const auto& [key, golden] : kGoldens) {
    SCOPED_TRACE(key);
    auto engine = make_engine();
    const auto algo = make_algorithm(key);
    const auto result = algo->run(engine);
    const auto& link = engine.network();
    EXPECT_EQ(result.final().accuracy, golden.accuracy);
    EXPECT_EQ(result.final().loss, golden.loss);
    EXPECT_EQ(link.mean_worker_bytes(), golden.mean_bytes);
    EXPECT_EQ(link.worker_bytes(1), golden.worker1_bytes);
    EXPECT_EQ(link.total_seconds(), golden.seconds);
    EXPECT_EQ(history_digest(result.history), golden.history);
  }
}

// The declarative path must construct the EXACT experiment the direct path
// does: a spec text naming the same workload, engine knobs and algorithm
// parameters lands on the seed-captured goldens bit for bit.  This pins the
// whole Scenario API stack — registry factories, spec parsing, Runner
// engine construction — to the pre-refactor accounting (and is what makes
// bench/specs/* reproductions trustworthy).
TEST(MessagePlaneRegression, SpecDrivenRunsMatchSeedGoldensBitForBit) {
  for (const auto& [key, golden] : kGoldens) {
    SCOPED_TRACE(key);
    auto spec = scenario::parse_spec_text(
        "workload=blob\n"
        "algorithm=" + key + "\n"
        "workers=4\n"
        "epochs=2\n"
        "batch=16\n"
        "lr=0.1\n"
        "seed=42\n"
        "bandwidth=uniform\n"
        "bandwidth-seed=123\n"
        "topk-c=10\n"
        "sfedavg-c=5\n"
        "dcd-c=4\n"
        "saps-c=10\n"
        "qsgd-levels=4\n");
    spec.threads = test_util::env_threads();
    scenario::Runner runner(spec);
    const auto record = runner.run(key);
    EXPECT_EQ(record.result.final().accuracy, golden.accuracy);
    EXPECT_EQ(record.result.final().loss, golden.loss);
    // traffic_mb is mean_worker_bytes / 1e6; compare in the same unit so
    // the check stays bit-exact.
    EXPECT_EQ(record.traffic_mb, golden.mean_bytes / 1e6);
    EXPECT_EQ(record.comm_seconds, golden.seconds);
    EXPECT_EQ(history_digest(record.result.history), golden.history);
  }
}

// The conv, pool and activation paths: short spec-driven runs of the tiny
// CNN (3-channel cifar and 1-channel mnist stand-ins: stride-1 "same" 3×3
// convs, ReLU, 2×2 max-pool) and the tiny ResNet (stride-2 convs, 1×1
// projection convs, batch-norm).  Captured before the nn layers' fast paths
// (empty input gradient, run-based im2col/col2im, vectorized ReLU backward,
// 2×2 pool path) were written; they must keep every bit.
TEST(CnnRegression, SpecDrivenConvRunsMatchGoldensBitForBit) {
  struct ConvGolden {
    const char* workload;
    const char* algorithm;
    double accuracy;
    double loss;
    std::uint64_t history;
  };
  const ConvGolden goldens[] = {
      {"cifar", "saps", 0x1.a3d70a3d70a3dp-2, 0x1.c8947a27af80ep+0,
       0x7e3de8dd652e95f7ULL},
      {"cifar", "fedavg", 0x1.11eb851eb851fp-1, 0x1.999cbb5e6545dp+0,
       0x08c88fde87b40091ULL},
      {"resnet", "saps", 0x1.d1eb851eb851fp-1, 0x1.a5bd39001fc64p-1,
       0x2893217c903379f3ULL},
      {"mnist", "topk", 0x1.28f5c28f5c28fp-1, 0x1.a45ca3b943053p+0,
       0xf9cdb3496e407999ULL},
  };
  const std::string common =
      "workers=4\n"
      "epochs=3\n"
      "samples=60\n"
      "test-samples=200\n"
      "batch=10\n"
      "seed=42\n"
      "bandwidth=uniform\n"
      "bandwidth-seed=123\n";
  for (const auto& golden : goldens) {
    SCOPED_TRACE(std::string(golden.workload) + "/" + golden.algorithm);
    const std::string text = common + "workload=" + golden.workload +
                             "\nalgorithm=" + golden.algorithm + "\n";
    auto spec = scenario::parse_spec_text(text);
    spec.threads = test_util::env_threads();
    scenario::Runner runner(spec);
    const auto record = runner.run(golden.algorithm);
    EXPECT_EQ(record.result.final().accuracy, golden.accuracy);
    EXPECT_EQ(record.result.final().loss, golden.loss);
    EXPECT_EQ(history_digest(record.result.history), golden.history);
  }
}

struct SpecGolden {
  const char* name;
  const char* lines;  // appended to the shared spec text
  double accuracy;
  double loss;
  double traffic_mb;
  double comm_seconds;
  std::uint64_t history;
};

void expect_spec_goldens(const std::string& common,
                         std::span<const SpecGolden> goldens) {
  for (const auto& golden : goldens) {
    SCOPED_TRACE(golden.name);
    auto spec = scenario::parse_spec_text(common + golden.lines);
    spec.threads = test_util::env_threads();
    scenario::Runner runner(spec);
    const auto record = runner.run(spec.algorithms.at(0));
    EXPECT_EQ(record.result.final().accuracy, golden.accuracy);
    EXPECT_EQ(record.result.final().loss, golden.loss);
    EXPECT_EQ(record.traffic_mb, golden.traffic_mb);
    EXPECT_EQ(record.comm_seconds, golden.comm_seconds);
    EXPECT_EQ(history_digest(record.result.history), golden.history);
  }
}

// The seven-algorithm goldens above train a 212-parameter MLP, so their
// top-k selections all take the small-n nth_element path.  A 512-wide
// hidden layer (6,660 parameters) sends TopK-PSGD's error-feedback
// compressor and DCD-PSGD's difference top-k through the threshold path
// (n >= 4096).  Captured before the fused two-pass select was written.
TEST(MessagePlaneRegression, ThresholdPathTopKRunsMatchGoldensBitForBit) {
  const SpecGolden goldens[] = {
      {"topk c=10", "algorithm=topk\ntopk-c=10\n", 0x1.9333333333333p-1,
       0x1.1800432ad51e2p-1, 0x1.4855da272862fp-1, 0x1.4743fd039afc1p-2,
       0x2af21657db30a071ULL},
      {"topk c=100", "algorithm=topk\ntopk-c=100\n", 0x1.a333333333333p-1,
       0x1.dbcd5e5f4987dp-2, 0x1.0f51ac9afe1dap-4, 0x1.0e6f5e1b819a8p-5,
       0x75e04cf43b17bcbfULL},
      {"dcd c=4", "algorithm=dcd\ndcd-c=4\n", 0x1.9666666666666p-1,
       0x1.1ed642bb610aap-1, 0x1.111f0c34c1a8bp+0, 0x1.103b3ce0a2c5fp-2,
       0x71eff016aa88d6cdULL},
  };
  expect_spec_goldens(
      "workload=blob\n"
      "blob-hidden=512\n"
      "blob-noise=1\n"
      "workers=4\n"
      "epochs=2\n"
      "batch=16\n"
      "lr=0.1\n"
      "seed=42\n"
      "bandwidth=uniform\n"
      "bandwidth-seed=123\n",
      goldens);
}

// Cohort runs: 8 of 16 clients drawn per round over the pooled replica
// engine, so clients leave and rejoin the cohort and their state goes
// through freeze/thaw.  Each algorithm also runs with a failures= window
// (three clients, overlapping rounds) whose members are drawn while away,
// which moves each run's loss and traffic.
TEST(CohortRegression, SpecDrivenCohortRunsMatchGoldensBitForBit) {
  const SpecGolden goldens[] = {
      {"saps", "algorithm=saps\n", 0x1.9333333333333p-1,
       0x1.29e6105d03b1fp-1, 0x1.d2e0e30446b6ap-10, 0x1.3d70a3d70a3d9p-2,
       0x48f74589281a3209ULL},
      {"saps failures", "algorithm=saps\nfailures=2@1-4,5@0-3,11@2-8\n",
       0x1.9333333333333p-1, 0x1.2e391b44f22dep-1, 0x1.c087442c7fbadp-10,
       0x1.3333333333335p-2, 0xb82648c0a918dc99ULL},
      {"fedavg", "algorithm=fedavg\n", 0x1p+0, 0x1.f13f3809b6c3dp-3,
       0x1.4d72799a1fd15p-9, 0x1.eb851eb851eb9p-5, 0x77ddf800e2ac7769ULL},
      {"fedavg failures", "algorithm=fedavg\nfailures=2@1-4,5@0-3,11@2-8\n",
       0x1p+0, 0x1.e95b55c4592abp-3, 0x1.15df6555c52e7p-9,
       0x1.eb851eb851eb9p-5, 0x2c1c221d7b7df59fULL},
      {"sfedavg", "algorithm=sfedavg\n", 0x1.fcccccccccccdp-1,
       0x1.59d7675a73bafp-3, 0x1.9b90ea9e6eeb7p-10, 0x1.eb851eb851eb9p-5,
       0x6bf46702aca43f42ULL},
      {"sfedavg failures", "algorithm=sfedavg\nfailures=2@1-4,5@0-3,11@2-8\n",
       0x1.fcccccccccccdp-1, 0x1.5c98773b98608p-3, 0x1.567dbb16c1e36p-10,
       0x1.eb851eb851eb9p-5, 0xaffb7b0bf381d429ULL},
  };
  // Population runs take no bandwidth matrix; the 10 ms link latency gives
  // them a nonzero simulated communication time.
  expect_spec_goldens(
      "workload=blob\n"
      "workers=4\n"
      "population=16\n"
      "cohort=8\n"
      "epochs=3\n"
      "batch=16\n"
      "lr=0.1\n"
      "seed=42\n"
      "latency=0.01\n"
      "saps-c=10\n"
      "sfedavg-c=5\n",
      goldens);
}

// Two pacing edges the runs above do not reach.  FedAvg with one local step
// per round over 6-step epochs accumulates 1/6 per round: six rounds sum to
// 0.9999999999999999, so a one-epoch run takes a seventh round, evaluated at
// epoch 1.1666666666666665.  A synchronous run whose eval-every (3) does not
// divide its 20 rounds is evaluated once more after the last round.
TEST(HistoryRegression, PacingEdgeRunsMatchGoldensBitForBit) {
  const SpecGolden goldens[] = {
      {"fedavg inexact progress",
       "algorithm=fedavg\nfedavg-steps=1\nblob-train=384\nepochs=1\n",
       0x1.699999999999ap-1, 0x1.fae432fc80db8p-1, 0x1.85058dde7a744p-8,
       0x1.9a6818d5e1efap-9, 0xc53f1c097fda5c25ULL},
      {"saps eval-every misses the end",
       "algorithm=saps\neval-every=3\nepochs=2\n", 0x1.f333333333333p-1,
       0x1.bd9783f1b100dp-2, 0x1.287c200c0f02p-8, 0x1.280e5129e7245p-9,
       0xfb664957c32b1215ULL},
  };
  expect_spec_goldens(
      "workload=blob\n"
      "workers=4\n"
      "batch=16\n"
      "lr=0.1\n"
      "seed=42\n"
      "bandwidth=uniform\n"
      "bandwidth-seed=123\n"
      "saps-c=10\n",
      goldens);
}

// Direct-engine cohort runs of the tiny ResNet with momentum: 8 of 16
// clients per round, so batch-norm running statistics and the optimizer
// velocity (SimConfig::momentum, which no spec key sets) go through
// freeze/thaw.  Besides the final loss and accuracy, a checksum pins the
// bytes of every resident worker's parameters, buffers and velocity at the
// end of the run, whichever thread ran its steps.  Captured serial and on a
// 4-thread pool before local steps moved onto shared step executors.
TEST(CohortRegression, MomentumResnetCohortRunsMatchGoldensBitForBit) {
  struct StateGolden {
    const char* algorithm;
    double accuracy;
    double loss;
    std::uint64_t state;  // fnv1a of the residents' params, buffers, velocity
    std::uint64_t history;
  };
  const StateGolden goldens[] = {
      {"saps", 0x1.851eb851eb852p-3, 0x1.09b27c1b847d6p+1,
       0x18e0aa69c8445088ULL, 0xca17f3210c896f7cULL},
      {"fedavg", 0x1.28f5c28f5c28fp-2, 0x1.d63fa6445b8e5p+0,
       0x41c505e9739ce73bULL, 0xf42f6414bd9eb01cULL},
  };
  const auto train = data::make_cifar_like(640, /*seed=*/5, /*img=*/8);
  const auto test = data::make_cifar_like(100, /*seed=*/5, /*img=*/8);
  for (const auto& golden : goldens) {
    SCOPED_TRACE(golden.algorithm);
    sim::SimConfig cfg;
    cfg.workers = 16;
    cfg.cohort = 8;
    cfg.sample_seed = 9;
    cfg.epochs = 3;
    cfg.batch_size = 10;
    cfg.lr = 0.02;
    cfg.momentum = 0.9;
    cfg.seed = 42;
    cfg.threads = test_util::env_threads();
    sim::Engine engine(
        cfg, train, test, [] { return nn::make_tiny_resnet(3, 8, 10, 42); },
        std::nullopt);
    const auto result = make_algorithm(golden.algorithm)->run(engine);
    std::uint64_t state = kFnvBasis;
    for (const auto w : engine.roster()) {
      state = fnv1a(engine.params(w), state);
      state = fnv1a(engine.model(w).buffers(), state);
      state = fnv1a(engine.optimizer(w).velocity(), state);
    }
    EXPECT_EQ(result.final().accuracy, golden.accuracy);
    EXPECT_EQ(result.final().loss, golden.loss);
    EXPECT_EQ(state, golden.state);
    EXPECT_EQ(history_digest(result.history), golden.history);
  }
}

// Faulted, robust and churn runs of all eight keys on an 8-worker blob MLP:
// frames dropped, duplicated, delayed, sign-flipped and cut by a healing
// partition (chaos); a trimmed mean against a sign-flipper; a median merge
// on a transparent fabric; and two failure windows over a lossy fabric.
// Besides the final metrics, a checksum pins the bytes of the run's final
// averaged parameters.  Captured serial and on a 4-thread pool before the
// synchronous algorithms moved onto one round driver.
TEST(FaultRegression, SpecDrivenFaultedRunsMatchGoldensBitForBit) {
  struct FaultGolden {
    const char* algorithm;
    const char* variant;
    double accuracy;
    double loss;
    double traffic_mb;
    double comm_seconds;
    std::uint64_t params;  // fnv1a of RunRecord::final_params
    std::uint64_t history;
  };
  const std::map<std::string, std::string> variants = {
      {"chaos",
       "fault-seed=777\ndrop-prob=0.15\ndup-prob=0.15\ndelay-prob=0.25\n"
       "delay-seconds=0.002\nbyzantine=3@2:sign-flip\n"
       "net-partition=0.1.2.3|4.5.6.7@3-6\n"},
      {"trimmed",
       "aggregation=trimmed\ntrim-frac=0.25\nbyzantine=3@2:sign-flip\n"},
      {"median", "aggregation=median\n"},
      {"failures",
       "failures=2@1-4,5@0-3\nfault-seed=778\ndrop-prob=0.2\ndup-prob=0.2\n"},
  };
  const FaultGolden goldens[] = {
      {"psgd", "chaos", 0x1.799999999999ap-1, 0x1.9808623b63027p-1,
       0x1.31a8ef77f27fep-6, 0x1.736d8b9339771p-6, 0x9cfd79a1a6412652ULL,
       0x9c446e1342d6deb2ULL},
      {"topk", "chaos", 0x1.2p-1, 0x1.4d01d9c00b848p+0, 0x1.4013ec460ed81p-6,
       0x1.d94bbcaeb825p-4, 0x01a64056eae14804ULL, 0x87d4f0149b55011dULL},
      {"qsgd", "chaos", 0x1.3cccccccccccdp-1, 0x1.393d8cdc93fbep+0,
       0x1.721709310129dp-7, 0x1.c5560eb6cd35fp-4, 0x9675c71d5d1dab08ULL,
       0x5c134a2388578200ULL},
      {"fedavg", "chaos", 0x1.2cccccccccccdp-1, 0x1.5662cc2f94fp+0,
       0x1.d8622c4502689p-10, 0x1.5f2c2fb36f30ap-8, 0x793c75a727dda8ecULL,
       0x74c76fc19821c1d4ULL},
      {"sfedavg", "chaos", 0x1.2666666666666p-2, 0x1.766fe4fceb50bp+1,
       0x1.1ada76d97b31p-10, 0x1.386def3758d3fp-8, 0xb60af2888327dd3cULL,
       0x091b3c45d8208892ULL},
      {"dpsgd", "chaos", 0x1.7p-1, 0x1.3aa6c6f4362a5p+0, 0x1.3c148344c37e7p-5,
       0x1.cb5a2e2d12818p-6, 0x2766a3a1ac0da8dbULL, 0x4d50915940bfbcc0ULL},
      {"dcd", "chaos", 0x1.8p-2, 0x1.82632ba618d38p+0, 0x1.4801f75104d55p-6,
       0x1.8c0021d017cd6p-6, 0xad486dc175f2fcc0ULL, 0xacad4e83ca71f7c1ULL},
      {"saps", "chaos", 0x1.7333333333333p-1, 0x1.ac685df5f1d46p-1,
       0x1.3be22e5de15cap-9, 0x1.0fe15e9225396p-6, 0xee3ae8bb1c5ab8e1ULL,
       0xc8436f7e7d8a26fcULL},
      {"psgd", "trimmed", 0x1.7666666666666p-1, 0x1.9e9f91d204e06p-1,
       0x1.15df6555c52e7p-6, 0x1.ff04a73387f6fp-7, 0x227f1dea4b6ba35fULL,
       0x27642844d6f516bfULL},
      {"topk", "trimmed", 0x1.6p-2, 0x1.bfca85267fbb5p+0,
       0x1.b866e43aa79bcp-6, 0x1.94f53262cc59cp-6, 0xe86e05b29af2728aULL,
       0xf990e9472927ed9eULL},
      {"qsgd", "trimmed", 0x1.6666666666666p-2, 0x1.b567895610deep+0,
       0x1.fd36f7e3d1cc1p-7, 0x1.d43b82423c47p-7, 0x3885fe33a9eb529fULL,
       0xdd062575140b7c4fULL},
      {"fedavg", "trimmed", 0x1.7333333333333p-1, 0x1.939ae3da7c17cp-1,
       0x1.bc98a222d5172p-10, 0x1.fabde9d38fcc8p-10, 0x1e74fc9965beb816ULL,
       0xd528cd53a4133077ULL},
      {"sfedavg", "trimmed", 0x1.d99999999999ap-1, 0x1.2fd6474c00bc6p-1,
       0x1.14d2f5dbb9cfap-10, 0x1.3a3646ec581dp-10, 0xe70b0be6b266de6dULL,
       0xa346792e405cea4eULL},
      {"dpsgd", "trimmed", 0x1.7p-1, 0x1.30a67752ac12ep+0,
       0x1.15df6555c52e7p-5, 0x1.ff04a73387f6fp-7, 0x4dbf4a5637729a25ULL,
       0x672a9f7b18eaf160ULL},
      {"dcd", "trimmed", 0x1.199999999999ap-1, 0x1.2292bd14e2d2p+0,
       0x1.205bc01a36e2fp-6, 0x1.0926a409d509cp-7, 0x67d3c7dfc16ded63ULL,
       0xab6ef02e6d787679ULL},
      {"saps", "trimmed", 0x1.7p-1, 0x1.b7060afcd2496p-1,
       0x1.1c6d1e108c3f4p-9, 0x1.af01b7506b907p-11, 0x4ec010d8091f77f8ULL,
       0x938f25760b75126fULL},
      {"psgd", "median", 0x1.7666666666666p-1, 0x1.9ec1bc6f98c9ap-1,
       0x1.15df6555c52e7p-6, 0x1.ff04a73387f6fp-7, 0xb4c9e50e3667cc84ULL,
       0xc89a96decc472b8eULL},
      {"topk", "median", 0x1.3cccccccccccdp-1, 0x1.482028bba6cf9p+0,
       0x1.b866e43aa79bcp-6, 0x1.94f53262cc59cp-6, 0xd61735c3e8c75703ULL,
       0xfef3ac31f0f83ba9ULL},
      {"qsgd", "median", 0x1.6cccccccccccdp-1, 0x1.0b0b793daa911p+0,
       0x1.fd36f7e3d1cc1p-7, 0x1.d43b82423c47p-7, 0x7f9fc46fcf36c017ULL,
       0x3141916646da12d7ULL},
      {"fedavg", "median", 0x1.799999999999ap-1, 0x1.86c76cb16cf42p-1,
       0x1.bc98a222d5172p-10, 0x1.fabde9d38fcc8p-10, 0xac7b55505e61946eULL,
       0xc73d337e4b6504e6ULL},
      {"sfedavg", "median", 0x1.e333333333333p-1, 0x1.20152543c57b4p-1,
       0x1.14d2f5dbb9cfap-10, 0x1.3a3646ec581dp-10, 0x4ed9a23ec0bbfa2bULL,
       0x3c9809fe2248783dULL},
      {"dpsgd", "median", 0x1.799999999999ap-1, 0x1.9a7f1763ae3aap-1,
       0x1.15df6555c52e7p-5, 0x1.ff04a73387f6fp-7, 0xa38be801c7ab18cdULL,
       0xcbfd40164cb04a59ULL},
      {"dcd", "median", 0x1.7333333333333p-1, 0x1.a25c9970d662p-1,
       0x1.205bc01a36e2fp-6, 0x1.0926a409d509cp-7, 0x5fab8a8a86390bfaULL,
       0x3767dfa1a669ccbdULL},
      {"saps", "median", 0x1.799999999999ap-1, 0x1.9b02bd15584d2p-1,
       0x1.1c6d1e108c3f4p-9, 0x1.af01b7506b907p-11, 0xbb01f2728d0f398aULL,
       0x56994cc43b8c7859ULL},
      {"psgd", "failures", 0x1.7666666666666p-1, 0x1.aba41230e1136p-1,
       0x1.2e2fbe33acd5bp-6, 0x1.93de2458d8e8bp-7, 0xecff0b53d00a6cb9ULL,
       0xc6664d7d1ea337f2ULL},
      {"topk", "failures", 0x1.699999999999ap-1, 0x1.d101f0edeea4dp-1,
       0x1.0a99b6f5caf2dp-6, 0x1.c5dc801b00fe1p-7, 0xc52c8f62d7b93ab7ULL,
       0x0a13ed7fdb1482e0ULL},
      {"qsgd", "failures", 0x1.799999999999ap-1, 0x1.aa9fc20382c96p-1,
       0x1.3441bb8c32a8dp-7, 0x1.06637a0f9c92ep-7, 0x9ed699bbe72566ecULL,
       0x3f2a8fa288510e31ULL},
      {"fedavg", "failures", 0x1.799999999999ap-1, 0x1.85c2480c762a6p-1,
       0x1.693c03bc4d22dp-10, 0x1.f723581f893cep-10, 0x557b54f2f6baf6feULL,
       0x5d86649f25506519ULL},
      {"sfedavg", "failures", 0x1.a99999999999ap-1, 0x1.3fb2dab88cfadp-1,
       0x1.ff2e48e8a71dep-11, 0x1.37eacabe89114p-10, 0xfe07ba5a0474de40ULL,
       0x426f336ebe0113ccULL},
      {"dpsgd", "failures", 0x1.7666666666666p-1, 0x1.a8d294cb5c883p-1,
       0x1.204af922962dp-5, 0x1.93de2458d8e8bp-7, 0xf9b5dbb6e62f8c24ULL,
       0x6445afd5b5fb385aULL},
      {"dcd", "failures", 0x1.6666666666666p-1, 0x1.04be5e3c377fp+0,
       0x1.031055b899392p-5, 0x1.583211eccdc6fp-7, 0xe16e8d4913d86de7ULL,
       0xef7275be7fc0916bULL},
      {"saps", "failures", 0x1.7666666666666p-1, 0x1.aeb6b32481416p-1,
       0x1.2e40852b4d8bap-9, 0x1.5c30ca6d6da9ep-11, 0x6216295a5a520c46ULL,
       0x59b8ba5e510d2691ULL},
  };
  const std::string common =
      "workload=blob\n"
      "workers=8\n"
      "epochs=2\n"
      "batch=16\n"
      "lr=0.1\n"
      "seed=42\n"
      "bandwidth=uniform\n"
      "bandwidth-seed=99\n"
      "topk-c=10\n"
      "sfedavg-c=5\n"
      "dcd-c=4\n"
      "saps-c=10\n"
      "qsgd-levels=4\n";
  for (const std::size_t threads : {0, 4}) {
    for (const auto& golden : goldens) {
      SCOPED_TRACE(std::string(golden.algorithm) + " " + golden.variant +
                   " threads=" + std::to_string(threads));
      auto spec = scenario::parse_spec_text(
          common + "algorithm=" + golden.algorithm + "\n" +
          variants.at(golden.variant));
      spec.threads = threads;
      scenario::Runner runner(spec);
      const auto record = runner.run(golden.algorithm);
      EXPECT_EQ(record.result.final().accuracy, golden.accuracy);
      EXPECT_EQ(record.result.final().loss, golden.loss);
      EXPECT_EQ(record.traffic_mb, golden.traffic_mb);
      EXPECT_EQ(record.comm_seconds, golden.comm_seconds);
      EXPECT_EQ(fnv1a(record.final_params, kFnvBasis),
                golden.params);
      EXPECT_EQ(history_digest(record.result.history), golden.history);
    }
  }
}

TEST(MessagePlaneRegression, NonzeroLatencyStrictlyLengthensCommTime) {
  for (const auto& key : {"psgd", "saps", "fedavg"}) {
    SCOPED_TRACE(key);
    auto engine = make_engine(/*latency=*/1e-3);
    const auto result = make_algorithm(key)->run(engine);
    EXPECT_GT(engine.network().total_seconds(), kGoldens.at(key).seconds);
    // Traffic and training are untouched by the timing model.
    EXPECT_EQ(engine.network().mean_worker_bytes(),
              kGoldens.at(key).mean_bytes);
    EXPECT_EQ(result.final().accuracy, kGoldens.at(key).accuracy);
  }
}

TEST(MessagePlaneRegression, ComputeJitterStrictlyLengthensCommTime) {
  auto engine = make_engine(/*latency=*/0.0, /*jitter=*/0.01);
  const auto result = make_algorithm("saps")->run(engine);
  EXPECT_GT(engine.network().total_seconds(), kGoldens.at("saps").seconds);
  EXPECT_EQ(result.final().accuracy, kGoldens.at("saps").accuracy);
}

TEST(MessagePlaneRegression, FabricControlLedgerMatchesCoordinator) {
  auto engine = make_engine();
  core::SapsPsgd algo({.compression = 10.0});
  (void)algo.run(engine);
  EXPECT_DOUBLE_EQ(engine.fabric().control_bytes(), algo.control_bytes());
  EXPECT_GT(algo.control_bytes(), 0.0);
}

}  // namespace
}  // namespace saps
