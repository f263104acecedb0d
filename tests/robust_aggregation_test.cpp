// Robust aggregation (compress/robust.hpp): trimmed mean and coordinate
// median as byzantine-tolerant alternatives to the plain mean.
//
// Pinned here:
//  - exact agreement with naive sort-based references on every tail shape
//    m ∈ {1..8} (odd/even medians, every trim_frac bucket including the
//    k = 0 and maximal-k corners);
//  - the all-equal identity (a constant column aggregates to itself);
//  - algorithm-level thread invariance: runs under aggregation=trimmed and
//    aggregation=median are bit-identical for threads ∈ {0, 1, 4};
//  - zero-byzantine sanity: with nobody attacking, robust rules still learn
//    and the fault wrapper's presence does not perturb a robust run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "algos/fedavg.hpp"
#include "algos/psgd.hpp"
#include "compress/robust.hpp"
#include "nn/models.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace saps {
namespace {

using compress::MergeRule;

// --- unit-level: robust_center vs naive references ---------------------------

TEST(RobustCenter, TrimCountNeverEatsTheWholeSample) {
  // k = floor(trim_frac·m), clamped so at least one element survives.
  EXPECT_EQ(compress::trim_count(8, 0.2), 1u);
  EXPECT_EQ(compress::trim_count(8, 0.25), 2u);
  EXPECT_EQ(compress::trim_count(8, 0.49), 3u);
  EXPECT_EQ(compress::trim_count(8, 0.9), 3u);   // clamp: (8-1)/2
  EXPECT_EQ(compress::trim_count(3, 0.34), 1u);
  EXPECT_EQ(compress::trim_count(2, 0.9), 0u);   // clamp: (2-1)/2
  EXPECT_EQ(compress::trim_count(1, 0.9), 0u);
  EXPECT_EQ(compress::trim_count(0, 0.5), 0u);
}

TEST(RobustCenter, MatchesNaiveReferenceOnEveryTailShape) {
  Rng rng(0x0B0B);
  for (std::size_t m = 1; m <= 8; ++m) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<float> vals(m);
      for (auto& v : vals) {
        v = static_cast<float>(rng.next_double() * 20.0 - 10.0);
      }
      std::vector<float> sorted = vals;
      std::sort(sorted.begin(), sorted.end());

      // Median reference: middle element (odd) or midpoint (even).
      {
        auto copy = vals;
        const float got =
            compress::robust_center(MergeRule::kMedian, copy, 0.0);
        const float want = m % 2 == 1
                               ? sorted[m / 2]
                               : (sorted[m / 2 - 1] + sorted[m / 2]) * 0.5f;
        EXPECT_EQ(got, want) << "m=" << m;
      }
      // Trimmed reference across the full trim_frac range: left-to-right
      // sorted-order summation, bit-identical by construction.
      for (const double tf : {0.0, 0.1, 0.2, 0.25, 0.34, 0.49, 0.9}) {
        auto copy = vals;
        const float got =
            compress::robust_center(MergeRule::kTrimmedMean, copy, tf);
        const std::size_t k = compress::trim_count(m, tf);
        ASSERT_LT(2 * k, m);
        float sum = 0.0f;
        for (std::size_t i = k; i < m - k; ++i) sum += sorted[i];
        const float want = sum / static_cast<float>(m - 2 * k);
        EXPECT_EQ(got, want) << "m=" << m << " trim_frac=" << tf;
      }
    }
  }
}

TEST(RobustCenter, ConstantColumnAggregatesToItself) {
  for (std::size_t m = 1; m <= 8; ++m) {
    std::vector<float> vals(m, 3.25f);
    auto a = vals;
    EXPECT_EQ(compress::robust_center(MergeRule::kMedian, a, 0.0), 3.25f);
    auto b = vals;
    EXPECT_EQ(compress::robust_center(MergeRule::kTrimmedMean, b, 0.2),
              3.25f);
  }
}

TEST(RobustCenter, SingleOutlierIsIgnoredByBothRules) {
  // 7 honest values near 1.0, one wild outlier: both robust rules land in
  // the honest range while the plain mean is dragged far away.
  std::vector<float> vals = {0.9f, 1.0f, 1.1f, 0.95f,
                             1.05f, 1.0f, 0.98f, -100.0f};
  auto a = vals;
  const float med = compress::robust_center(MergeRule::kMedian, a, 0.0);
  EXPECT_GT(med, 0.9f);
  EXPECT_LT(med, 1.1f);
  auto b = vals;
  const float trm =
      compress::robust_center(MergeRule::kTrimmedMean, b, 0.2);
  EXPECT_GT(trm, 0.9f);
  EXPECT_LT(trm, 1.1f);
}

TEST(RobustCombine, ColumnwiseAgreesWithScalarCenter) {
  // robust_combine over a [begin, end) coordinate range must equal calling
  // robust_center per coordinate.
  constexpr std::size_t kInputs = 5, kDim = 17;
  Rng rng(99);
  std::vector<std::vector<float>> data(kInputs, std::vector<float>(kDim));
  std::vector<const float*> ptrs;
  for (auto& row : data) {
    for (auto& v : row) v = static_cast<float>(rng.next_double() - 0.5);
    ptrs.push_back(row.data());
  }
  for (const auto rule : {MergeRule::kTrimmedMean, MergeRule::kMedian}) {
    const std::size_t begin = 3, end = 14;
    std::vector<float> out(end - begin);
    std::vector<float> scratch(kInputs);
    compress::robust_combine(rule, 0.2, ptrs, begin, end, out, scratch);
    for (std::size_t j = begin; j < end; ++j) {
      std::vector<float> column(kInputs);
      for (std::size_t i = 0; i < kInputs; ++i) column[i] = data[i][j];
      EXPECT_EQ(out[j - begin],
                compress::robust_center(rule, column, 0.2))
          << "coordinate " << j;
    }
  }
}

// --- algorithm-level: thread invariance and zero-byzantine sanity -----------

constexpr std::size_t kThreadCounts[] = {0, 1, 4};

struct RunSnapshot {
  sim::RunResult result;
  std::vector<std::vector<float>> params;
};

// Built directly (NOT via blob_engine) so SAPS_THREADS cannot override the
// thread count under test.
sim::Engine make_engine(std::size_t threads, bool force_wrapper = false) {
  const test_util::BlobSpec spec;
  const auto& [train, test] = test_util::blob_data(spec);
  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.threads = threads;
  cfg.faults.force_wrapper = force_wrapper;
  return sim::Engine(
      cfg, train, test,
      [spec] {
        return nn::make_mlp({spec.features}, {spec.hidden}, spec.classes, 42);
      },
      std::nullopt);
}

RunSnapshot run_robust(algos::Algorithm& algo, std::size_t threads,
                       bool force_wrapper = false) {
  auto engine = make_engine(threads, force_wrapper);
  RunSnapshot snap;
  snap.result = algo.run(engine);
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    const auto p = engine.params(w);
    snap.params.emplace_back(p.begin(), p.end());
  }
  return snap;
}

void expect_identical(const RunSnapshot& base, const RunSnapshot& other) {
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
    EXPECT_EQ(base.result.history[i].loss, other.result.history[i].loss);
    EXPECT_EQ(base.result.history[i].accuracy,
              other.result.history[i].accuracy);
  }
}

algos::Dynamics robust_dynamics(MergeRule rule) {
  algos::Dynamics dyn;
  dyn.merge = rule;
  dyn.trim_frac = 0.2;
  return dyn;
}

template <typename MakeAlgo>
void check_thread_invariance(MakeAlgo make_algo) {
  std::unique_ptr<RunSnapshot> base;
  for (const auto threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto algo = make_algo();
    auto snap = run_robust(*algo, threads);
    if (!base) {
      base = std::make_unique<RunSnapshot>(std::move(snap));
      // Zero-byzantine sanity: robust aggregation over honest workers
      // still trains well above chance.
      EXPECT_GT(base->result.final().accuracy, 0.5);
    } else {
      expect_identical(*base, snap);
    }
  }
}

TEST(RobustAggregation, TrimmedPsgdBitIdenticalAcrossThreadCounts) {
  check_thread_invariance([] {
    return std::make_unique<algos::PsgdAllReduce>(
        robust_dynamics(MergeRule::kTrimmedMean));
  });
}

TEST(RobustAggregation, MedianPsgdBitIdenticalAcrossThreadCounts) {
  check_thread_invariance([] {
    return std::make_unique<algos::PsgdAllReduce>(
        robust_dynamics(MergeRule::kMedian));
  });
}

TEST(RobustAggregation, TrimmedFedAvgBitIdenticalAcrossThreadCounts) {
  check_thread_invariance([] {
    return std::make_unique<algos::FedAvg>(
        algos::FedAvgConfig{.fraction = 1.0, .local_steps = 1},
        robust_dynamics(MergeRule::kTrimmedMean));
  });
}

TEST(RobustAggregation, MedianSparseFedAvgBitIdenticalAcrossThreadCounts) {
  // Covers the masked-upload (sparse) robust aggregation path.
  check_thread_invariance([] {
    return std::make_unique<algos::FedAvg>(
        algos::FedAvgConfig{.fraction = 1.0,
                            .local_steps = 1,
                            .upload_compression = 5.0},
        robust_dynamics(MergeRule::kMedian));
  });
}

TEST(RobustAggregation, FaultWrapperPresenceDoesNotPerturbRobustRuns) {
  // A forced zero-knob FaultyFabric under a robust-aggregation run changes
  // nothing: the robust math reads the same frames the plain fabric
  // delivers.
  auto plain_algo = std::make_unique<algos::PsgdAllReduce>(
      robust_dynamics(MergeRule::kTrimmedMean));
  const auto plain = run_robust(*plain_algo, 0, /*force_wrapper=*/false);
  auto wrapped_algo = std::make_unique<algos::PsgdAllReduce>(
      robust_dynamics(MergeRule::kTrimmedMean));
  const auto wrapped = run_robust(*wrapped_algo, 0, /*force_wrapper=*/true);
  expect_identical(plain, wrapped);
}

}  // namespace
}  // namespace saps
