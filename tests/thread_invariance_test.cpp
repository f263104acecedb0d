// Thread-count invariance: the engine's hot loops (local SGD, compression,
// gossip merge, evaluation) may run on a thread pool, but every reduction
// crosses workers in fixed order, so final model weights and every eval
// metric must be BIT-identical for threads ∈ {0, 1, 4}.  This is the
// acceptance gate for the parallel round loop (docs/ARCHITECTURE.md,
// "Threading model").
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "algos/d_psgd.hpp"
#include "algos/fedavg.hpp"
#include "algos/psgd.hpp"
#include "algos/qsgd_psgd.hpp"
#include "algos/topk_psgd.hpp"
#include "core/saps.hpp"
#include "net/bandwidth.hpp"
#include "nn/models.hpp"
#include "sim/engine.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 4};

struct RunSnapshot {
  sim::RunResult result;
  std::vector<std::vector<float>> params;  // per worker
  double consensus = 0.0;
};

// Builds the engine directly (NOT via blob_engine) so an external
// SAPS_THREADS setting cannot override the thread count under test.
sim::Engine make_engine(std::size_t threads, bool with_bandwidth) {
  const test_util::BlobSpec spec;
  const auto& [train, test] = test_util::blob_data(spec);
  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.threads = threads;
  std::optional<net::BandwidthMatrix> bw;
  if (with_bandwidth) bw = net::random_uniform_bandwidth(cfg.workers, 99);
  return sim::Engine(
      cfg, train, test,
      [spec] {
        return nn::make_mlp({spec.features}, {spec.hidden}, spec.classes,
                            42);
      },
      std::move(bw));
}

RunSnapshot run_with_threads(const algos::Algorithm& algo, std::size_t threads,
                             bool with_bandwidth) {
  auto engine = make_engine(threads, with_bandwidth);
  RunSnapshot snap;
  snap.result = algo.run(engine);
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    const auto p = engine.params(w);
    snap.params.emplace_back(p.begin(), p.end());
  }
  snap.consensus = engine.consensus_distance();
  return snap;
}

void expect_identical(const RunSnapshot& base, const RunSnapshot& other,
                      std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(base.params.size(), other.params.size());
  for (std::size_t w = 0; w < base.params.size(); ++w) {
    ASSERT_EQ(base.params[w].size(), other.params[w].size());
    for (std::size_t j = 0; j < base.params[w].size(); ++j) {
      ASSERT_EQ(base.params[w][j], other.params[w][j])
          << "worker " << w << " coordinate " << j;
    }
  }
  ASSERT_EQ(base.result.history.size(), other.result.history.size());
  for (std::size_t i = 0; i < base.result.history.size(); ++i) {
    const auto& a = base.result.history[i];
    const auto& b = other.result.history[i];
    EXPECT_EQ(a.round, b.round) << "point " << i;
    EXPECT_EQ(a.epoch, b.epoch) << "point " << i;
    EXPECT_EQ(a.loss, b.loss) << "point " << i;
    EXPECT_EQ(a.accuracy, b.accuracy) << "point " << i;
    EXPECT_EQ(a.worker_mb, b.worker_mb) << "point " << i;
    EXPECT_EQ(a.comm_seconds, b.comm_seconds) << "point " << i;
  }
  EXPECT_EQ(base.consensus, other.consensus);
}

template <typename MakeAlgo>
void check_invariance(MakeAlgo make_algo, bool with_bandwidth) {
  std::unique_ptr<RunSnapshot> base;
  for (const auto threads : kThreadCounts) {
    auto algo = make_algo();
    auto snap = run_with_threads(*algo, threads, with_bandwidth);
    if (!base) {
      base = std::make_unique<RunSnapshot>(std::move(snap));
      // Sanity: the serial baseline actually trained.
      EXPECT_GT(base->result.final().accuracy, 0.5);
    } else {
      expect_identical(*base, snap, threads);
    }
  }
}

TEST(ThreadInvariance, SapsPsgdBitIdenticalAcrossThreadCounts) {
  check_invariance(
      [] {
        return std::make_unique<core::SapsPsgd>(
            core::SapsConfig{.compression = 10.0});
      },
      /*with_bandwidth=*/true);
}

TEST(ThreadInvariance, SapsRandomMatchBitIdenticalWithoutBandwidth) {
  check_invariance(
      [] {
        return std::make_unique<core::SapsPsgd>(core::SapsConfig{
            .compression = 10.0,
            .strategy = core::SelectionStrategy::kRandomMatch});
      },
      /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, DPsgdBitIdenticalAcrossThreadCounts) {
  check_invariance([] { return std::make_unique<algos::DPsgd>(); },
                   /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, TopkPsgdBitIdenticalAcrossThreadCounts) {
  check_invariance(
      [] {
        return std::make_unique<algos::TopkPsgd>(
            algos::TopkConfig{.compression = 10.0});
      },
      /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, DcdPsgdBitIdenticalAcrossThreadCounts) {
  check_invariance(
      [] {
        return std::make_unique<algos::DcdPsgd>(
            algos::DcdConfig{.compression = 4.0});
      },
      /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, QsgdPsgdBitIdenticalAcrossThreadCounts) {
  // Covers the per-worker quantization RNG streams and the chunked
  // decode-and-accumulate reduction.
  check_invariance(
      [] {
        return std::make_unique<algos::QsgdPsgd>(
            algos::QsgdConfig{.levels = 4});
      },
      /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, PsgdAllReduceBitIdenticalAcrossThreadCounts) {
  check_invariance([] { return std::make_unique<algos::PsgdAllReduce>(); },
                   /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, FedAvgBitIdenticalAcrossThreadCounts) {
  // Covers the parallel local schedules and the dim-chunked dense
  // aggregation.
  check_invariance(
      [] {
        return std::make_unique<algos::FedAvg>(
            algos::FedAvgConfig{.fraction = 0.5});
      },
      /*with_bandwidth=*/false);
}

TEST(ThreadInvariance, SparseFedAvgBitIdenticalAcrossThreadCounts) {
  // Covers the masked (sketched-upload) dim-chunked aggregation path.
  check_invariance(
      [] {
        return std::make_unique<algos::FedAvg>(
            algos::FedAvgConfig{.fraction = 0.5, .upload_compression = 5.0});
      },
      /*with_bandwidth=*/false);
}

// The kernel backend (AVX2 vs portable) joins the cross-product: GEMM,
// quantization, and top-k selection all dispatch on it, and every
// combination of backend × thread count must produce the same run.
template <typename MakeAlgo>
void check_backend_invariance(MakeAlgo make_algo) {
  std::unique_ptr<RunSnapshot> base;
  for (const auto be :
       {ops::GemmBackend::kAvx2, ops::GemmBackend::kPortable}) {
    if (!ops::gemm_backend_available(be)) continue;
    SCOPED_TRACE(be == ops::GemmBackend::kAvx2 ? "backend=avx2"
                                               : "backend=portable");
    ops::set_gemm_backend(be);
    for (const auto threads : kThreadCounts) {
      auto algo = make_algo();
      auto snap = run_with_threads(*algo, threads, false);
      if (!base) {
        base = std::make_unique<RunSnapshot>(std::move(snap));
        EXPECT_GT(base->result.final().accuracy, 0.5);
      } else {
        expect_identical(*base, snap, threads);
      }
    }
  }
  ops::set_gemm_backend(ops::GemmBackend::kAuto);
}

TEST(ThreadInvariance, QsgdBitIdenticalAcrossBackendsAndThreads) {
  // Covers the SIMD quantize/dequantize and bit-pack/unpack fast paths
  // against their portable twins, under every thread count.
  check_backend_invariance([] {
    return std::make_unique<algos::QsgdPsgd>(algos::QsgdConfig{.levels = 4});
  });
}

TEST(ThreadInvariance, TopkBitIdenticalAcrossBackendsAndThreads) {
  // Covers the vectorized threshold-pass top-k against the scalar collect.
  check_backend_invariance([] {
    return std::make_unique<algos::TopkPsgd>(
        algos::TopkConfig{.compression = 10.0});
  });
}

TEST(ThreadInvariance, StepsFromPlainThreadsMatchSteppingInTurn) {
  // sgd_step and compute_gradient for distinct workers may run at the same
  // time on any threads, not only on the engine's pool: each call checks an
  // executor out of a shared free list.  Four std::threads stepping
  // disjoint workers of a serial engine land on the bits of one thread
  // stepping every worker in turn.
  auto in_turn = make_engine(0, false);
  auto threaded = make_engine(0, false);
  const std::size_t n = in_turn.workers();
  const auto step = [](sim::Engine& engine, std::size_t w) {
    (void)engine.sgd_step(w, 0);
    (void)engine.compute_gradient(w, 0);
  };
  for (int round = 0; round < 3; ++round) {
    for (std::size_t w = 0; w < n; ++w) step(in_turn, w);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t w = t; w < n; w += 4) step(threaded, w);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (std::size_t w = 0; w < n; ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    const auto pa = in_turn.params(w), pb = threaded.params(w);
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    const auto ga = in_turn.model(w).gradients();
    const auto gb = threaded.model(w).gradients();
    EXPECT_TRUE(std::equal(ga.begin(), ga.end(), gb.begin(), gb.end()));
  }
}

TEST(ThreadInvariance, EvalPointBitIdenticalAcrossThreadCounts) {
  // Isolates the evaluation path: identical trained state, evaluated on one
  // executor and on the pool's several.
  auto serial = make_engine(0, false);
  auto pooled = make_engine(4, false);
  for (std::size_t w = 0; w < serial.workers(); ++w) {
    serial.sgd_step(w, 0);
    pooled.sgd_step(w, 0);
  }
  const auto a = serial.eval_point(1, 0.5);
  const auto b = pooled.eval_point(1, 0.5);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.accuracy, b.accuracy);
}

}  // namespace
}  // namespace saps
