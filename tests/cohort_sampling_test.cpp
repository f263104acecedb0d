// Population-scale cohort sampling: the engine's per-round cohort draw must
// be a pure function of (sample_seed, round) — identical across reruns and
// thread counts — and the replica pool's freeze/thaw must round-trip a
// worker's full training state (parameters, optimizer velocity, batch-stream
// position) so leaving and rejoining the cohort is invisible to the math.
// This is the acceptance gate for pooled mode (docs/ARCHITECTURE.md,
// "Cohort sampling & replica pool").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "algos/fedavg.hpp"
#include "core/saps.hpp"
#include "net/wire.hpp"
#include "nn/models.hpp"
#include "sim/engine.hpp"
#include "sim/faulty_fabric.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 4};

// Builds a pooled engine directly (NOT via blob_engine) so an external
// SAPS_THREADS setting cannot override the thread count under test.
sim::Engine make_pooled_engine(std::size_t population, std::size_t cohort,
                               std::size_t shard_groups, std::size_t threads,
                               std::size_t epochs = 2,
                               sim::FaultSpec faults = {}) {
  const test_util::BlobSpec spec;
  const auto& [train, test] = test_util::blob_data(spec);
  sim::SimConfig cfg;
  cfg.workers = population;
  cfg.cohort = cohort;
  cfg.shard_groups = shard_groups;
  cfg.sample_seed = 777;
  cfg.epochs = epochs;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.threads = threads;
  cfg.faults = std::move(faults);
  return sim::Engine(
      cfg, train, test,
      [spec] {
        return nn::make_mlp({spec.features}, {spec.hidden}, spec.classes, 42);
      },
      std::nullopt);
}

bool on_roster(const sim::Engine& e, std::size_t w) {
  return std::ranges::binary_search(e.roster(), w);
}

std::vector<std::size_t> listed(const sim::Engine& e) {
  return {e.active_list().begin(), e.active_list().end()};
}

TEST(CohortDraw, PureFunctionOfSeedAndRound) {
  // population ≫ resident replicas: only slot_of_ scales with the
  // population, so a 100000-worker engine stays cheap to build.
  auto a = make_pooled_engine(100000, 4, 4, 0);
  auto b = make_pooled_engine(100000, 4, 4, 0);
  for (std::size_t round = 1; round <= 12; ++round) {
    const auto ra = a.begin_round_cohort(round);
    const auto rb = b.begin_round_cohort(round);
    ASSERT_EQ(ra.size(), 4u);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "round " << round;
    // Ascending, distinct, in range.
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_LT(ra[i], 100000u);
      if (i > 0) {
        EXPECT_LT(ra[i - 1], ra[i]);
      }
    }
  }
}

TEST(CohortDraw, IndependentOfCallHistory) {
  // The round-7 draw must not depend on which rounds were materialized
  // before it — a must for algorithms that skip rounds.
  auto a = make_pooled_engine(1000, 4, 4, 0);
  auto b = make_pooled_engine(1000, 4, 4, 0);
  for (std::size_t round = 1; round <= 7; ++round) a.begin_round_cohort(round);
  const auto ra = a.begin_round_cohort(7);
  const auto rb = b.begin_round_cohort(7);
  EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
}

TEST(CohortPool, ResidencyTracksTheRoster) {
  auto e = make_pooled_engine(1000, 4, 4, 0);
  EXPECT_TRUE(e.cohort_mode());
  EXPECT_EQ(e.roster().size(), 4u);
  for (std::size_t round = 1; round <= 5; ++round) {
    const auto roster = e.begin_round_cohort(round);
    for (const auto w : roster) {
      EXPECT_TRUE(e.active(w));
      (void)e.params(w);  // resident ⇒ a live replica is addressable
    }
    // A non-member is neither active nor addressable.
    std::size_t outsider = 0;
    while (on_roster(e, outsider)) ++outsider;
    EXPECT_FALSE(e.active(outsider));
    EXPECT_THROW((void)e.params(outsider), std::logic_error);
  }
}

TEST(CohortPool, FreezeThawRoundTripsTrainingState) {
  // A worker that trains, leaves the cohort, and rejoins must produce the
  // exact loss/parameter trajectory of a never-frozen replica: freeze/thaw
  // round-trips parameters, optimizer velocity, and the sampler position.
  auto pooled = make_pooled_engine(32, 4, 32, 0);
  auto legacy = make_pooled_engine(32, 32, 32, 0);  // cohort == population
  ASSERT_FALSE(legacy.cohort_mode());

  // Track one member of the first drawn cohort through absences.
  std::size_t w = make_pooled_engine(32, 4, 32, 0).begin_round_cohort(1)[0];
  std::vector<double> pooled_losses, legacy_losses;
  std::size_t steps = 0;
  for (std::size_t round = 1; steps < 6; ++round) {
    ASSERT_LT(round, 200u) << "draws never re-selected worker " << w;
    const auto roster = pooled.begin_round_cohort(round);
    if (!std::binary_search(roster.begin(), roster.end(), w)) continue;
    pooled_losses.push_back(pooled.sgd_step(w, 0));
    legacy_losses.push_back(legacy.sgd_step(w, 0));
    ++steps;
  }
  EXPECT_EQ(pooled_losses, legacy_losses);
  const auto pp = pooled.params(w);
  const auto lp = legacy.params(w);
  ASSERT_EQ(pp.size(), lp.size());
  for (std::size_t j = 0; j < pp.size(); ++j) {
    ASSERT_EQ(pp[j], lp[j]) << "coordinate " << j;
  }
}

TEST(CohortPool, SimultaneouslyEvictedAndFailedWorkerStaysConsistent) {
  // The failure hook fires AFTER the cohort draw, so a worker can be both
  // evicted (not drawn this round) and failed (inside its dropout window).
  // The two must compose: eviction controls residency (replica liveness),
  // failure controls activity — and neither flips the other.
  auto e = make_pooled_engine(1000, 4, 4, 0);
  for (std::size_t round = 1; round <= 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto roster = e.begin_round_cohort(round);
    std::size_t outsider = 0;
    while (std::binary_search(roster.begin(), roster.end(), outsider)) {
      ++outsider;
    }
    // A failure schedule naming both an evicted worker and a drawn one
    // flips them inactive, the way the Runner's failure hook wires it.
    e.set_active(outsider, false);
    e.set_active(roster[0], false);
    EXPECT_FALSE(on_roster(e, outsider));
    EXPECT_FALSE(e.active(outsider));
    EXPECT_THROW((void)e.params(outsider), std::logic_error);
    // Failed-but-drawn: replica stays addressable, worker just sits out.
    EXPECT_TRUE(on_roster(e, roster[0]));
    EXPECT_FALSE(e.active(roster[0]));
    (void)e.params(roster[0]);
    // Rejoining (set_active true) must NOT resurrect a non-resident
    // replica: residency is the cohort draw's exclusive domain.
    e.set_active(outsider, true);
    EXPECT_FALSE(on_roster(e, outsider));
    EXPECT_FALSE(e.active(outsider));
    EXPECT_THROW((void)e.params(outsider), std::logic_error);
  }
}

TEST(CohortPool, ActiveListIsTheRosterLessAwayWorkers) {
  // The engine's one liveness state is the active list: the roster after
  // each draw, less the resident workers a failure hook took off.  Eight
  // clients and a cohort of four, so workers stay across draws and a draw
  // must put back a drawn worker that was away.
  constexpr std::size_t kPopulation = 8;
  auto e = make_pooled_engine(kPopulation, 4, 4, 0);
  EXPECT_EQ(listed(e),
            std::vector<std::size_t>(e.roster().begin(), e.roster().end()));
  std::vector<std::size_t> away;  // left off at the end of the last round
  std::size_t redrawn = 0;        // of those, drawn again
  for (std::size_t round = 1; round <= 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto roster = e.begin_round_cohort(round);
    const std::vector<std::size_t> drawn(roster.begin(), roster.end());
    EXPECT_EQ(listed(e), drawn);
    for (const auto w : away) redrawn += on_roster(e, w) ? 1 : 0;
    // Off twice, then back twice: listed once, in ascending order.
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      auto rest = drawn;
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      e.set_active(drawn[i], false);
      e.set_active(drawn[i], false);
      EXPECT_EQ(listed(e), rest);
      EXPECT_FALSE(e.active(drawn[i]));
      e.set_active(drawn[i], true);
      e.set_active(drawn[i], true);
      EXPECT_EQ(listed(e), drawn);
      EXPECT_TRUE(e.active(drawn[i]));
    }
    // A worker without a replica stays off the list.
    std::size_t outsider = 0;
    while (on_roster(e, outsider)) ++outsider;
    e.set_active(outsider, true);
    EXPECT_EQ(listed(e), drawn);
    EXPECT_FALSE(e.active(outsider));
    // Leave two workers away; the next draw lists every worker it holds.
    away = {drawn.front(), drawn.back()};
    for (const auto w : away) e.set_active(w, false);
  }
  EXPECT_GT(redrawn, 0u);
  EXPECT_THROW(e.set_active(kPopulation, true), std::out_of_range);
  EXPECT_THROW(e.set_active(kPopulation, false), std::out_of_range);
  EXPECT_THROW((void)e.active(kPopulation), std::out_of_range);
}

TEST(CohortPool, CollusionGateCountsTheActiveRingMembers) {
  // A ring of eight with a quorum of three, in a population of 32 drawn
  // eight at a time: the gate opens exactly in the rounds where at least
  // three ring members are on the active list, whether the draw or
  // set_active decides who is on it.
  constexpr std::size_t kPopulation = 32, kCohort = 8, kQuorum = 3;
  sim::FaultSpec faults;
  faults.fault_seed = 9;
  for (std::size_t w = 0; w < kPopulation; w += 4) {
    faults.collude_group.push_back(w);
    faults.byzantine.push_back(
        {.worker = w, .mode = sim::ByzantineMode::kCollusion});
  }
  faults.collude_min = kQuorum;
  auto e = make_pooled_engine(kPopulation, kCohort, 8, 0, 2, faults);
  auto& fabric = dynamic_cast<sim::FaultyFabric&>(e.fabric());
  const net::FullModelMsg frame{.rank = 0, .params = {1.0f, -2.0f}};
  std::size_t open = 0, closed = 0, taken_off = 0;
  for (std::size_t round = 1; round <= 40; ++round) {
    e.begin_round_cohort(round);
    std::vector<std::size_t> ring;  // the ring members on the active list
    for (const auto w : e.active_list()) {
      if (std::ranges::binary_search(faults.collude_group, w)) {
        ring.push_back(w);
      }
    }
    if (ring.size() == kQuorum && taken_off == 0) {
      // Taking one resident member off closes a gate the draw opened.
      e.set_active(ring.back(), false);
      ring.pop_back();
      ++taken_off;
    }
    const auto before = fabric.tally().transformed;
    fabric.begin_round();
    for (const auto w : ring) fabric.send(w, e.server_node(), frame);
    fabric.end_round();
    const auto transformed = fabric.tally().transformed - before;
    if (ring.size() >= kQuorum) {
      EXPECT_EQ(transformed, ring.size()) << "round " << round;
      ++open;
    } else {
      EXPECT_EQ(transformed, 0u) << "round " << round;
      ++closed;
    }
  }
  EXPECT_GT(open, 0u);
  EXPECT_GT(closed, 0u);
  EXPECT_EQ(taken_off, 1u);
}

TEST(CohortPool, FedAvgFreezesNoParametersWhileSapsKeepsThem) {
  // FedAvg's download overwrites a returning client's parameters before
  // they are read, so its frozen records keep none, and model state stays
  // bounded by the cohort however many clients a long run draws.  A SAPS
  // replica is its state: every worker that held a replica and is not
  // resident keeps one parameter vector.
  constexpr std::size_t kPopulation = 1000, kCohort = 8, kEpochs = 6;
  for (const double compression : {0.0, 5.0}) {
    SCOPED_TRACE(compression > 0.0 ? "S-FedAvg" : "FedAvg");
    auto engine = make_pooled_engine(kPopulation, kCohort, 8, 0, kEpochs);
    algos::FedAvgConfig config;
    config.local_steps = 1;
    config.upload_compression = compression;
    algos::FedAvg fedavg(config);
    const auto result = fedavg.run(engine);
    ASSERT_GE(result.final().round, 20u);
    const auto frozen = engine.frozen_bytes();
    EXPECT_EQ(frozen.params, 0u);
    EXPECT_GT(frozen.state, 0u);  // the deselected clients' samplers
  }

  auto engine = make_pooled_engine(kPopulation, kCohort, 8, 0, kEpochs);
  std::set<std::size_t> held(engine.roster().begin(), engine.roster().end());
  core::SapsConfig cfg;
  cfg.compression = 10.0;
  cfg.strategy = core::SelectionStrategy::kRandomMatch;
  algos::Dynamics dyn;
  dyn.on_round = [&held](std::size_t, sim::Engine& eng) {
    held.insert(eng.roster().begin(), eng.roster().end());
  };
  core::SapsPsgd saps(cfg, std::move(dyn));
  const auto result = saps.run(engine);
  ASSERT_GE(result.final().round, 20u);
  const std::size_t deselected = held.size() - kCohort;
  ASSERT_GT(deselected, kCohort);
  EXPECT_EQ(engine.frozen_bytes().params,
            deselected * engine.param_count() * sizeof(float));
}

TEST(CohortPool, FrozenSamplerStateDoesNotGrowWithTheShard) {
  // A frozen record keeps its sampler's epoch index and cursor, not the
  // epoch's order: two engines that draw the same cohorts over shards of 80
  // and 320 samples hold the same frozen bytes.
  auto small = make_pooled_engine(1000, 8, 8, 0);
  auto large = make_pooled_engine(1000, 8, 2, 0);
  ASSERT_EQ(small.shard_size(0) * 4, large.shard_size(0));
  for (std::size_t round = 1; round <= 10; ++round) {
    for (auto* engine : {&small, &large}) {
      engine->begin_round_cohort(round, sim::Engine::Keep::kAllButParams);
      engine->for_each_worker([&](std::size_t w) { engine->sgd_step(w, 0); });
    }
  }
  const auto frozen = small.frozen_bytes();
  EXPECT_GT(frozen.state, 0u);
  EXPECT_EQ(frozen.state, large.frozen_bytes().state);
}

struct RunSnapshot {
  sim::RunResult result;
  std::vector<float> average;
  double consensus = 0.0;
};

template <typename MakeAlgo>
void check_population_invariance(MakeAlgo make_algo, std::size_t population,
                                 std::size_t cohort) {
  std::unique_ptr<RunSnapshot> base;
  for (const auto threads : kThreadCounts) {
    auto engine = make_pooled_engine(population, cohort, 8, threads);
    auto algo = make_algo();
    RunSnapshot snap;
    snap.result = algo->run(engine);
    snap.average = engine.average_params();
    snap.consensus = engine.consensus_distance();
    if (!base) {
      base = std::make_unique<RunSnapshot>(std::move(snap));
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(base->average.size(), snap.average.size());
    for (std::size_t j = 0; j < snap.average.size(); ++j) {
      ASSERT_EQ(base->average[j], snap.average[j]) << "coordinate " << j;
    }
    ASSERT_EQ(base->result.history.size(), snap.result.history.size());
    for (std::size_t i = 0; i < snap.result.history.size(); ++i) {
      const auto& x = base->result.history[i];
      const auto& y = snap.result.history[i];
      EXPECT_EQ(x.round, y.round) << "point " << i;
      EXPECT_EQ(x.loss, y.loss) << "point " << i;
      EXPECT_EQ(x.accuracy, y.accuracy) << "point " << i;
      EXPECT_EQ(x.worker_mb, y.worker_mb) << "point " << i;
    }
    EXPECT_EQ(base->consensus, snap.consensus);
  }
}

TEST(CohortInvariance, FedAvgBitIdenticalAcrossThreadCounts) {
  check_population_invariance(
      [] {
        return std::make_unique<algos::FedAvg>(
            algos::FedAvgConfig{.fraction = 0.5});
      },
      /*population=*/500, /*cohort=*/8);
}

TEST(CohortInvariance, SparseFedAvgBitIdenticalAcrossThreadCounts) {
  check_population_invariance(
      [] {
        return std::make_unique<algos::FedAvg>(
            algos::FedAvgConfig{.fraction = 0.5, .upload_compression = 5.0});
      },
      /*population=*/500, /*cohort=*/8);
}

TEST(CohortInvariance, SapsPsgdBitIdenticalAcrossThreadCounts) {
  check_population_invariance(
      [] {
        return std::make_unique<core::SapsPsgd>(core::SapsConfig{
            .compression = 10.0,
            .strategy = core::SelectionStrategy::kRandomMatch});
      },
      /*population=*/100, /*cohort=*/8);
}

TEST(CohortInvariance, SapsWithFailuresBitIdenticalAcrossThreadCounts) {
  // Workers 3 and 7 of a 100-worker population fail for rounds [2, 5).
  // Some of those rounds they are ALSO outside the drawn cohort — the
  // evicted-and-failed overlap — and the run must stay bit-identical
  // across thread counts through both conditions.
  check_population_invariance(
      [] {
        core::SapsConfig cfg{
            .compression = 10.0,
            .strategy = core::SelectionStrategy::kRandomMatch};
        algos::Dynamics dyn;
        dyn.on_round = [](std::size_t round, sim::Engine& eng) {
          const bool away = round >= 2 && round < 5;
          for (const std::size_t w : {3u, 7u}) eng.set_active(w, !away);
        };
        return std::make_unique<core::SapsPsgd>(cfg, std::move(dyn));
      },
      /*population=*/100, /*cohort=*/8);
}

}  // namespace
}  // namespace saps
