#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace saps::sim {
namespace {

// The engine borrows its training and test sets: a temporary for either
// must not compile, or the engine would outlive the samples it reads.
using data::Dataset;
using Bandwidth = std::optional<net::BandwidthMatrix>;
template <typename Train, typename Test>
constexpr bool kBuilds = std::is_constructible_v<Engine, SimConfig, Train, Test,
                                                 ModelFactory, Bandwidth>;
static_assert(kBuilds<const Dataset&, const Dataset&>);
static_assert(!kBuilds<Dataset, const Dataset&>);
static_assert(!kBuilds<const Dataset&, Dataset>);
static_assert(!kBuilds<Dataset, Dataset>);

// Nor is an engine copied or moved: its fault fabric's colluder-liveness
// probe reads the engine it was built for, so every engine is built in
// place or returned as a prvalue.
static_assert(!std::is_copy_constructible_v<Engine>);
static_assert(!std::is_copy_assignable_v<Engine>);
static_assert(!std::is_move_constructible_v<Engine>);
static_assert(!std::is_move_assignable_v<Engine>);

Engine make_engine(SimConfig cfg,
                   std::optional<net::BandwidthMatrix> bw = std::nullopt) {
  // Historical engine-test workload: smaller blobs, seed 100.
  const test_util::BlobSpec spec{512, 128, 8, 4, 0.3, 100, 16};
  return test_util::blob_engine(std::move(cfg), spec, std::move(bw));
}

TEST(Engine, IdenticalInitialModels) {
  SimConfig cfg;
  cfg.workers = 4;
  auto engine = make_engine(cfg);
  const auto ref = engine.params(0);
  for (std::size_t w = 1; w < 4; ++w) {
    const auto p = engine.params(w);
    for (std::size_t j = 0; j < p.size(); ++j) EXPECT_EQ(p[j], ref[j]);
  }
  EXPECT_NEAR(engine.consensus_distance(), 0.0, 1e-12);
}

TEST(Engine, SgdStepChangesOnlyThatWorker) {
  SimConfig cfg;
  cfg.workers = 3;
  auto engine = make_engine(cfg);
  const std::vector<float> before(engine.params(1).begin(),
                                  engine.params(1).end());
  engine.sgd_step(0, 0);
  double moved = 0.0;
  for (std::size_t j = 0; j < before.size(); ++j) {
    moved += std::abs(engine.params(0)[j] - before[j]);
  }
  EXPECT_GT(moved, 0.0);
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(engine.params(1)[j], before[j]);
  }
  EXPECT_GT(engine.consensus_distance(), 0.0);
}

TEST(Engine, AllreduceRestoresConsensus) {
  SimConfig cfg;
  cfg.workers = 4;
  auto engine = make_engine(cfg);
  for (std::size_t w = 0; w < 4; ++w) engine.sgd_step(w, 0);
  EXPECT_GT(engine.consensus_distance(), 0.0);
  engine.allreduce_average();
  EXPECT_NEAR(engine.consensus_distance(), 0.0, 1e-10);
}

TEST(Engine, DeterministicAcrossRuns) {
  SimConfig cfg;
  cfg.workers = 4;
  auto a = make_engine(cfg);
  auto b = make_engine(cfg);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_DOUBLE_EQ(a.sgd_step(w, 0), b.sgd_step(w, 0));
  }
  for (std::size_t w = 0; w < 4; ++w) {
    const auto pa = a.params(w), pb = b.params(w);
    for (std::size_t j = 0; j < pa.size(); ++j) EXPECT_EQ(pa[j], pb[j]);
  }
}

TEST(Engine, ThreadedStepMatchesSequential) {
  SimConfig cfg;
  cfg.workers = 4;
  auto seq = make_engine(cfg);
  SimConfig cfg_mt = cfg;
  cfg_mt.threads = 4;
  auto par = make_engine(cfg_mt);
  seq.for_each_worker([&](std::size_t w) { seq.sgd_step(w, 0); });
  par.for_each_worker([&](std::size_t w) { par.sgd_step(w, 0); });
  for (std::size_t w = 0; w < 4; ++w) {
    const auto ps = seq.params(w), pp = par.params(w);
    for (std::size_t j = 0; j < ps.size(); ++j) EXPECT_EQ(ps[j], pp[j]);
  }
}

TEST(Engine, EvalPointTracksNetworkCounters) {
  SimConfig cfg;
  cfg.workers = 3;
  auto engine = make_engine(cfg);
  auto& net = engine.network();
  net.start_round();
  net.transfer(0, 1, 3e6);
  net.finish_round();
  const auto p = engine.eval_point(1, 0.5);
  EXPECT_EQ(p.round, 1u);
  EXPECT_DOUBLE_EQ(p.epoch, 0.5);
  EXPECT_NEAR(p.worker_mb, 6.0 / 3.0, 1e-9);  // 3 MB up + 3 MB down over 3
  EXPECT_GT(p.accuracy, 0.0);
}

TEST(Engine, EvalPointRejectsWrongSizeParameters) {
  SimConfig cfg;
  cfg.workers = 3;
  auto engine = make_engine(cfg);
  const std::vector<float> short_params(engine.param_count() - 1, 0.0f);
  const std::vector<float> long_params(engine.param_count() + 1, 0.0f);
  EXPECT_THROW(engine.eval_point(1, 0.5, short_params), std::invalid_argument);
  EXPECT_THROW(engine.eval_point(1, 0.5, long_params), std::invalid_argument);
  const auto p0 = engine.params(0);
  const std::vector<float> exact(p0.begin(), p0.end());
  EXPECT_NO_THROW(engine.eval_point(1, 0.5, exact));
}

// A spec-driven run with its engine kept, so every resident worker's final
// parameters can be compared.  With `extra_evals`, every evaluation the
// algorithm makes is followed by one more, of the resident workers'
// average, through the metric observer.
struct KeptRun {
  std::vector<std::size_t> roster;
  std::vector<std::vector<float>> params;
  MetricPoint final;
  std::size_t eval_points = 0;
};

KeptRun run_spec(const std::string& text, std::size_t threads,
                 bool extra_evals = false) {
  auto spec = scenario::parse_spec_text(text);
  spec.threads = threads;
  scenario::Runner runner(spec);
  const auto& s = runner.spec();  // finalized
  const auto& registry = scenario::Registry::instance();
  const auto& entry = registry.algorithm(s.algorithms.at(0));
  const auto params = scenario::resolve_entry_params(entry.params, s.params);
  auto algorithm = entry.make(params, {});
  auto engine = runner.make_engine();
  KeptRun run;
  bool nested = false;
  engine.set_metric_observer([&](const MetricPoint& p) {
    ++run.eval_points;
    if (!extra_evals || nested) return;
    nested = true;
    (void)engine.eval_point(p.round, p.epoch);
    nested = false;
  });
  run.final = algorithm->run(engine).final();
  for (const auto w : engine.roster()) {
    const auto p = engine.params(w);
    run.roster.push_back(w);
    run.params.emplace_back(p.begin(), p.end());
  }
  return run;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Engine, EvaluationNeverChangesARun) {
  // More evaluation must leave training untouched: both runs of each pair
  // end with bit-identical parameters on every resident worker and the same
  // final metrics.  SAPS runs eval-every=1 against its default
  // once-per-epoch cadence.  FedAvg evaluates its global model after every
  // round by design, so its second run adds an evaluation of other
  // parameters (the resident average) after each of those.  Eval batches of
  // 24 over 100 test samples make five batches, the last one short, so a
  // 4-thread engine spreads them over four executors.
  const std::string common =
      "workload=cifar\n"
      "workers=4\n"
      "epochs=2\n"
      "samples=60\n"
      "test-samples=100\n"
      "batch=10\n"
      "seed=42\n"
      "eval-batch=24\n";
  const std::string saps_lines =
      "algorithm=saps\n"
      "bandwidth=uniform\n"
      "bandwidth-seed=123\n";
  const std::string fedavg_lines =
      "algorithm=fedavg\n"
      "population=16\n"
      "cohort=8\n";
  const std::string saps = common + saps_lines;
  const std::string fedavg = common + fedavg_lines;
  const std::string every_round = saps + "eval-every=1\n";
  for (const std::size_t threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::pair<KeptRun, KeptRun> pairs[] = {
        {run_spec(saps, threads), run_spec(every_round, threads)},
        {run_spec(fedavg, threads), run_spec(fedavg, threads, true)},
    };
    for (const auto& [base, more] : pairs) {
      ASSERT_GT(more.eval_points, base.eval_points);
      ASSERT_EQ(more.roster, base.roster);
      for (std::size_t i = 0; i < base.params.size(); ++i) {
        EXPECT_TRUE(same_bits(more.params[i], base.params[i]))
            << "worker " << base.roster[i];
      }
      EXPECT_TRUE(same_bits(more.final.loss, base.final.loss));
      EXPECT_TRUE(same_bits(more.final.accuracy, base.final.accuracy));
    }
  }
}

TEST(Engine, InactiveWorkersExcludedFromAverage) {
  SimConfig cfg;
  cfg.workers = 3;
  auto engine = make_engine(cfg);
  engine.sgd_step(2, 0);
  engine.set_active(2, false);
  const auto avg = engine.average_params();
  // With worker 2 inactive, the average equals workers 0/1 (still at init).
  const auto p0 = engine.params(0);
  for (std::size_t j = 0; j < avg.size(); ++j) EXPECT_EQ(avg[j], p0[j]);
}

TEST(Engine, ForEachSkipsInactive) {
  SimConfig cfg;
  cfg.workers = 3;
  auto engine = make_engine(cfg);
  engine.set_active(1, false);
  std::vector<int> hits(3, 0);
  engine.for_each_worker([&](std::size_t w) { hits[w] = 1; });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 0);
  EXPECT_EQ(hits[2], 1);
}

TEST(Engine, WorkerBandwidthRoundTrip) {
  SimConfig cfg;
  cfg.workers = 5;
  auto bw = net::random_uniform_bandwidth(5, 3);
  const double expect01 = bw.get(0, 1);
  auto engine = make_engine(cfg, std::move(bw));
  const auto back = engine.worker_bandwidth();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 5u);
  EXPECT_DOUBLE_EQ(back->get(0, 1), expect01);
  EXPECT_EQ(engine.server_node(), 5u);
}

TEST(Engine, NoBandwidthMeansNoWorkerBandwidth) {
  SimConfig cfg;
  cfg.workers = 3;
  auto engine = make_engine(cfg);
  EXPECT_FALSE(engine.worker_bandwidth().has_value());
}

TEST(Engine, RejectsMismatchedBandwidth) {
  SimConfig cfg;
  cfg.workers = 4;
  EXPECT_THROW(make_engine(cfg, net::random_uniform_bandwidth(6, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace saps::sim
