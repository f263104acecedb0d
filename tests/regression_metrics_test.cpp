// Message-plane regression gate: default (zero-latency, uniform-compute)
// runs of all seven algorithms must reproduce the PRE-REFACTOR accounting
// bit-for-bit.  The golden numbers below were captured from the seed tree
// (hand-computed byte constants fed straight into the old NetworkSim) on the
// exact workload built here; the fabric path — encoded wire messages,
// wire_bytes() charging, staged transfer application, event-driven link
// model — must land on identical traffic, communication time, accuracy and
// loss.  A nonzero-latency configuration must strictly lengthen
// comm_seconds, and the control-plane ledger must match the coordinator's.
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

struct Golden {
  double accuracy;       // final eval accuracy
  double loss;           // final eval loss
  double mean_bytes;     // LinkModel::mean_worker_bytes at end of run
  double worker1_bytes;  // LinkModel::worker_bytes(1)
  double seconds;        // LinkModel::total_seconds
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
              0x1.09p+15, 0x1.14f79f73fa38bp-6}},
    {"topk", {0x1.fp-1, 0x1.d720aca9df88ep-2, 0x1.68p+14, 0x1.68p+14,
              0x1.7841e71b239ecp-7}},
    {"qsgd", {0x1.f333333333333p-1, 0x1.acc8b35fa362bp-2, 0x1.a04p+13,
              0x1.a04p+13, 0x1.b30c3337612f9p-8}},
    {"fedavg", {0x1.f333333333333p-1, 0x1.b1b023923b73bp-2, 0x1.a8p+10,
                0x1.a8p+10, 0x1.93cc6ee37323ap-11}},
    {"sfedavg", {0x1.e333333333333p-1, 0x1.0d7c73946811cp-2, 0x1.08p+10,
                 0x1.0ep+10, 0x1.f7dd4f96a727p-12}},
    {"dpsgd", {0x1.f333333333333p-1, 0x1.bab769e097035p-2, 0x1.09p+16,
               0x1.09p+16, 0x1.14f79f73fa38bp-6}},
    {"dcd", {0x1.f333333333333p-1, 0x1.ba77cbdbdea18p-2, 0x1.13p+15,
             0x1.13p+15, 0x1.1f6b3b34bb362p-7}},
    {"saps", {0x1.f333333333333p-1, 0x1.bd9783f1b100dp-2, 0x1.1acp+12,
              0x1.0d8p+12, 0x1.280e5129e7245p-9}},
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
        algos::FedAvgConfig{.fraction = 0.5, .local_epochs = 1});
  }
  if (key == "sfedavg") {
    return std::make_unique<algos::FedAvg>(algos::FedAvgConfig{
        .fraction = 0.5, .local_epochs = 1, .upload_compression = 5.0});
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
  };
  const ConvGolden goldens[] = {
      {"cifar", "saps", 0x1.a3d70a3d70a3dp-2, 0x1.c8947a27af80ep+0},
      {"cifar", "fedavg", 0x1.11eb851eb851fp-1, 0x1.999cbb5e6545dp+0},
      {"resnet", "saps", 0x1.d1eb851eb851fp-1, 0x1.a5bd39001fc64p-1},
      {"mnist", "topk", 0x1.28f5c28f5c28fp-1, 0x1.a45ca3b943053p+0},
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
  }
}

struct SpecGolden {
  const char* name;
  const char* lines;  // appended to the shared spec text
  double accuracy;
  double loss;
  double traffic_mb;
  double comm_seconds;
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
       0x1.1800432ad51e2p-1, 0x1.4855da272862fp-1, 0x1.4743fd039afc1p-2},
      {"topk c=100", "algorithm=topk\ntopk-c=100\n", 0x1.a333333333333p-1,
       0x1.dbcd5e5f4987dp-2, 0x1.0f51ac9afe1dap-4, 0x1.0e6f5e1b819a8p-5},
      {"dcd c=4", "algorithm=dcd\ndcd-c=4\n", 0x1.9666666666666p-1,
       0x1.1ed642bb610aap-1, 0x1.111f0c34c1a8bp+0, 0x1.103b3ce0a2c5fp-2},
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
       0x1.29e6105d03b1fp-1, 0x1.d2e0e30446b6ap-10, 0x1.3d70a3d70a3d9p-2},
      {"saps failures", "algorithm=saps\nfailures=2@1-4,5@0-3,11@2-8\n",
       0x1.9333333333333p-1, 0x1.2e391b44f22dep-1, 0x1.c087442c7fbadp-10,
       0x1.3333333333335p-2},
      {"fedavg", "algorithm=fedavg\n", 0x1p+0, 0x1.f13f3809b6c3dp-3,
       0x1.4d72799a1fd15p-9, 0x1.eb851eb851eb9p-5},
      {"fedavg failures", "algorithm=fedavg\nfailures=2@1-4,5@0-3,11@2-8\n",
       0x1p+0, 0x1.e95b55c4592abp-3, 0x1.15df6555c52e7p-9,
       0x1.eb851eb851eb9p-5},
      {"sfedavg", "algorithm=sfedavg\n", 0x1.fcccccccccccdp-1,
       0x1.59d7675a73bafp-3, 0x1.9b90ea9e6eeb7p-10, 0x1.eb851eb851eb9p-5},
      {"sfedavg failures", "algorithm=sfedavg\nfailures=2@1-4,5@0-3,11@2-8\n",
       0x1.fcccccccccccdp-1, 0x1.5c98773b98608p-3, 0x1.567dbb16c1e36p-10,
       0x1.eb851eb851eb9p-5},
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

// FNV-1a over the bytes of `values`, continuing from `hash`.
std::uint64_t fnv1a(std::span<const float> values, std::uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
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
  };
  const StateGolden goldens[] = {
      {"saps", 0x1.851eb851eb852p-3, 0x1.09b27c1b847d6p+1,
       0x18e0aa69c8445088ULL},
      {"fedavg", 0x1.28f5c28f5c28fp-2, 0x1.d63fa6445b8e5p+0,
       0x41c505e9739ce73bULL},
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
    std::uint64_t state = 0xcbf29ce484222325ULL;
    for (const auto w : engine.roster()) {
      state = fnv1a(engine.params(w), state);
      state = fnv1a(engine.model(w).buffers(), state);
      state = fnv1a(engine.optimizer(w).velocity(), state);
    }
    EXPECT_EQ(result.final().accuracy, golden.accuracy);
    EXPECT_EQ(result.final().loss, golden.loss);
    EXPECT_EQ(state, golden.state);
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
