// Chaos suite for the fault-injecting fabric (sim/faulty_fabric.hpp).
//
// The determinism contract under test: every injection decision is a pure
// function of (fault_seed, fabric round, source, per-source send counter,
// destination), so a faulted run is BIT-identical across thread counts
// {0, 1, 4} and across reruns — the same invariance the clean simulator
// pins in thread_invariance_test.  On top of that the suite pins the
// accounting ledger (drops/partitions charge without delivering, duplicates
// charge and deliver twice, delays add seconds without bytes, silent
// byzantine workers send nothing) and the zero-knob transparency guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
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
#include "sim/faulty_fabric.hpp"
#include "test_util.hpp"

namespace saps {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 4};

struct RunSnapshot {
  sim::RunResult result;
  std::vector<std::vector<float>> params;  // per worker
  sim::FaultyFabric::Tally tally;          // zero when the fabric is plain
};

// Builds the engine directly (NOT via blob_engine) so an external
// SAPS_THREADS setting cannot override the thread count under test.
sim::Engine make_engine(std::size_t threads, const sim::FaultSpec& faults) {
  const test_util::BlobSpec spec;
  const auto& [train, test] = test_util::blob_data(spec);
  sim::SimConfig cfg;
  cfg.workers = 8;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.lr = 0.1;
  cfg.seed = 42;
  cfg.threads = threads;
  cfg.faults = faults;
  return sim::Engine(
      cfg, train, test,
      [spec] {
        return nn::make_mlp({spec.features}, {spec.hidden}, spec.classes, 42);
      },
      net::random_uniform_bandwidth(cfg.workers, 99));
}

RunSnapshot run_faulted(const algos::Algorithm& algo, std::size_t threads,
                        const sim::FaultSpec& faults) {
  auto engine = make_engine(threads, faults);
  RunSnapshot snap;
  snap.result = algo.run(engine);
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    const auto p = engine.params(w);
    snap.params.emplace_back(p.begin(), p.end());
  }
  if (const auto* faulty =
          dynamic_cast<const sim::FaultyFabric*>(&engine.fabric())) {
    snap.tally = faulty->tally();
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
    const auto& a = base.result.history[i];
    const auto& b = other.result.history[i];
    EXPECT_EQ(a.loss, b.loss) << "point " << i;
    EXPECT_EQ(a.accuracy, b.accuracy) << "point " << i;
    EXPECT_EQ(a.worker_mb, b.worker_mb) << "point " << i;
    EXPECT_EQ(a.comm_seconds, b.comm_seconds) << "point " << i;
  }
}

void expect_same_tally(const sim::FaultyFabric::Tally& a,
                       const sim::FaultyFabric::Tally& b) {
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.transformed, b.transformed);
  EXPECT_EQ(a.silenced, b.silenced);
  EXPECT_EQ(a.partitioned, b.partitioned);
  EXPECT_EQ(a.clipped, b.clipped);
}

// A spec that fires every probabilistic injection plus a byzantine window
// and a healing partition — the worst case for cross-thread agreement.
sim::FaultSpec chaos_spec() {
  sim::FaultSpec faults;
  faults.fault_seed = 777;
  faults.drop_prob = 0.15;
  faults.dup_prob = 0.15;
  faults.delay_prob = 0.25;
  faults.delay_seconds = 0.002;
  faults.byzantine = {{.worker = 3, .from_round = 2, .to_round = 0,
                       .mode = sim::ByzantineMode::kSignFlip}};
  faults.partitions = {{.groups = {{0, 1, 2, 3}, {4, 5, 6, 7}},
                        .from_round = 3,
                        .to_round = 6}};
  return faults;
}

// The chaos spec extended with every adaptive-adversary knob: a boosted
// model-replacement window, a two-member colluding pair, the attenuation
// budget, and the clip-norm defense — the worst case for cross-thread
// agreement of the NEW decision/transform streams.
sim::FaultSpec adaptive_chaos_spec() {
  auto faults = chaos_spec();
  faults.byzantine = {{.worker = 3, .from_round = 2, .to_round = 0,
                       .mode = sim::ByzantineMode::kModelReplacement},
                      {.worker = 1, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion},
                      {.worker = 5, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion}};
  faults.collude_group = {1, 5};
  faults.collude_min = 2;
  faults.adapt_attack = 0.5;
  faults.clip_norm = 1.0;
  return faults;
}

// A Tally counter, naming an injection a chaos run must have fired.
using TallyCount = std::size_t sim::FaultyFabric::Tally::*;
using Tally = sim::FaultyFabric::Tally;
constexpr TallyCount kChaosInjections[] = {
    &Tally::dropped, &Tally::duplicated, &Tally::delayed, &Tally::transformed,
    &Tally::partitioned};
// A server topology has no worker-to-worker frame for the partition to cut.
constexpr TallyCount kServerChaosInjections[] = {
    &Tally::dropped, &Tally::duplicated, &Tally::delayed, &Tally::transformed};

template <typename MakeAlgo>
void check_faulted_invariance(
    MakeAlgo make_algo, const sim::FaultSpec& faults = chaos_spec(),
    std::span<const TallyCount> fired = kChaosInjections) {
  std::unique_ptr<RunSnapshot> base;
  for (const auto threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto algo = make_algo();
    auto snap = run_faulted(*algo, threads, faults);
    if (!base) {
      base = std::make_unique<RunSnapshot>(std::move(snap));
      // The chaos spec actually fired — otherwise the test is vacuous.
      for (const auto count : fired) EXPECT_GT(base->tally.*count, 0u);
    } else {
      expect_identical(*base, snap);
      expect_same_tally(base->tally, snap.tally);
    }
  }
  // Rerun invariance: the serial run repeated from scratch is bit-identical.
  auto algo = make_algo();
  const auto again = run_faulted(*algo, 0, faults);
  expect_identical(*base, again);
  expect_same_tally(base->tally, again.tally);
}

using AlgoFactory = std::function<std::unique_ptr<algos::Algorithm>()>;

// Every algorithm key, configured as the chaos and transparency tests run
// it.
std::vector<std::pair<std::string, AlgoFactory>> all_algorithms() {
  const algos::FedAvgConfig fed{.fraction = 0.5, .local_steps = 1};
  auto sfed = fed;
  sfed.upload_compression = 5.0;
  return {
      {"psgd", [] { return std::make_unique<algos::PsgdAllReduce>(); }},
      {"topk",
       [] {
         return std::make_unique<algos::TopkPsgd>(
             algos::TopkConfig{.compression = 10.0});
       }},
      {"qsgd",
       [] {
         return std::make_unique<algos::QsgdPsgd>(
             algos::QsgdConfig{.levels = 4});
       }},
      {"fedavg", [fed] { return std::make_unique<algos::FedAvg>(fed); }},
      {"sfedavg", [sfed] { return std::make_unique<algos::FedAvg>(sfed); }},
      {"dpsgd", [] { return std::make_unique<algos::DPsgd>(); }},
      {"dcd",
       [] {
         return std::make_unique<algos::DcdPsgd>(
             algos::DcdConfig{.compression = 4.0});
       }},
      {"saps",
       [] {
         return std::make_unique<core::SapsPsgd>(
             core::SapsConfig{.compression = 10.0});
       }},
  };
}

AlgoFactory algorithm(const std::string& key) {
  for (auto& [name, make] : all_algorithms()) {
    if (name == key) return make;
  }
  throw std::invalid_argument("no algorithm " + key);
}

TEST(FaultInjection, SapsChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("saps"));
}

TEST(FaultInjection, DPsgdChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("dpsgd"));
}

TEST(FaultInjection, TopkChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("topk"));
}

TEST(FaultInjection, PsgdChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("psgd"));
}

TEST(FaultInjection, QsgdChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("qsgd"));
}

TEST(FaultInjection, DcdChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("dcd"));
}

TEST(FaultInjection, FedAvgChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("fedavg"), chaos_spec(),
                           kServerChaosInjections);
}

TEST(FaultInjection, SparseFedAvgChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("sfedavg"), chaos_spec(),
                           kServerChaosInjections);
}

TEST(FaultInjection, ZeroKnobWrapperIsBitIdenticalToPlainFabric) {
  // force_wrapper installs the FaultyFabric with nothing enabled; it must
  // report transparent() and reproduce the plain fabric bit for bit for
  // every algorithm (which keeps its strict receive checks).
  sim::FaultSpec forced;
  forced.force_wrapper = true;
  forced.fault_seed = 777;  // a seed alone must not perturb anything
  {
    auto probe = make_engine(0, forced);
    ASSERT_NE(dynamic_cast<sim::FaultyFabric*>(&probe.fabric()), nullptr);
    EXPECT_TRUE(probe.fabric().transparent());
  }
  for (const auto& [key, make_algo] : all_algorithms()) {
    SCOPED_TRACE(key);
    auto plain_algo = make_algo();
    const auto plain = run_faulted(*plain_algo, 0, sim::FaultSpec{});
    auto forced_algo = make_algo();
    const auto wrapped = run_faulted(*forced_algo, 0, forced);
    expect_identical(plain, wrapped);
    expect_same_tally(wrapped.tally, sim::FaultyFabric::Tally{});
  }
}

TEST(FaultInjection, DroppedFramesAreChargedButNeverDelivered) {
  algos::DPsgd baseline_algo;
  const auto baseline = run_faulted(baseline_algo, 0, sim::FaultSpec{});

  sim::FaultSpec faults;
  faults.fault_seed = 5;
  faults.drop_prob = 1.0;
  algos::DPsgd algo;
  const auto dropped = run_faulted(algo, 0, faults);

  EXPECT_GT(dropped.tally.dropped, 0u);
  EXPECT_EQ(dropped.tally.duplicated, 0u);
  // The sender paid for every frame: the traffic ledger matches the clean
  // run exactly even though no frame arrived...
  EXPECT_EQ(dropped.result.final().worker_mb, baseline.result.final().worker_mb);
  // ...and with no gossip each worker trains alone, so the trajectories
  // diverge from the clean run.
  EXPECT_NE(dropped.result.final().loss, baseline.result.final().loss);
}

TEST(FaultInjection, DuplicatedFramesChargeTwiceAndMergeOnce) {
  algos::DPsgd baseline_algo;
  const auto baseline = run_faulted(baseline_algo, 0, sim::FaultSpec{});

  sim::FaultSpec faults;
  faults.fault_seed = 5;
  faults.dup_prob = 1.0;
  algos::DPsgd algo;
  const auto duped = run_faulted(algo, 0, faults);

  EXPECT_GT(duped.tally.duplicated, 0u);
  // Receivers deduplicate (first matching frame wins), so the model state
  // and metrics match the clean run bit for bit...
  for (std::size_t i = 0; i < baseline.result.history.size(); ++i) {
    EXPECT_EQ(duped.result.history[i].loss, baseline.result.history[i].loss);
    EXPECT_EQ(duped.result.history[i].accuracy,
              baseline.result.history[i].accuracy);
  }
  // ...while the ledger charges the retransmission: exactly double bytes.
  // Round TIME is unchanged — concurrent transfers on one link don't
  // contend in the event model, and max(t, t) == t.
  EXPECT_EQ(duped.result.final().worker_mb,
            2.0 * baseline.result.final().worker_mb);
  EXPECT_EQ(duped.result.final().comm_seconds,
            baseline.result.final().comm_seconds);
}

TEST(FaultInjection, DelayedFramesKeepTheirBytesButAddSeconds) {
  algos::DPsgd baseline_algo;
  const auto baseline = run_faulted(baseline_algo, 0, sim::FaultSpec{});

  sim::FaultSpec faults;
  faults.fault_seed = 5;
  faults.delay_prob = 1.0;
  faults.delay_seconds = 0.01;
  algos::DPsgd algo;
  const auto delayed = run_faulted(algo, 0, faults);

  EXPECT_GT(delayed.tally.delayed, 0u);
  // Payloads are untouched, so the learning trajectory is bit-identical;
  // only the simulated wall clock moves.
  for (std::size_t i = 0; i < baseline.result.history.size(); ++i) {
    EXPECT_EQ(delayed.result.history[i].loss,
              baseline.result.history[i].loss);
    EXPECT_EQ(delayed.result.history[i].accuracy,
              baseline.result.history[i].accuracy);
  }
  EXPECT_EQ(delayed.result.final().worker_mb,
            baseline.result.final().worker_mb);
  EXPECT_GT(delayed.result.final().comm_seconds,
            baseline.result.final().comm_seconds);
  // The timeline's bits with every frame 10 ms late.
  EXPECT_EQ(delayed.result.final().comm_seconds, 0x1.d97a2e800a986p-4);
}

TEST(FaultInjection, SilentByzantineWorkersSendNothingAndPayNothing) {
  algos::DPsgd baseline_algo;
  const auto baseline = run_faulted(baseline_algo, 0, sim::FaultSpec{});

  sim::FaultSpec faults;
  faults.fault_seed = 5;
  faults.byzantine = {{.worker = 2, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kSilent}};
  algos::DPsgd algo;
  const auto silenced = run_faulted(algo, 0, faults);

  EXPECT_GT(silenced.tally.silenced, 0u);
  EXPECT_EQ(silenced.tally.transformed, 0u);
  // Unsent frames are uncharged, unlike drops.
  EXPECT_LT(silenced.result.final().worker_mb,
            baseline.result.final().worker_mb);
}

TEST(FaultInjection, PartitionChargesCutFramesAndHealsOnSchedule) {
  algos::DPsgd baseline_algo;
  const auto baseline = run_faulted(baseline_algo, 0, sim::FaultSpec{});

  sim::FaultSpec faults;
  faults.fault_seed = 5;
  faults.partitions = {{.groups = {{0, 1, 2, 3}, {4, 5, 6, 7}},
                        .from_round = 2,
                        .to_round = 5}};
  algos::DPsgd algo;
  const auto split = run_faulted(algo, 0, faults);

  // Only the two ring edges crossing the cut are affected, and only for
  // fabric rounds [2, 5): 2 directed edges × 2 endpoints... the exact count
  // is 2 frames per cut edge per round (left+right sends) over 3 rounds.
  EXPECT_GT(split.tally.partitioned, 0u);
  EXPECT_EQ(split.tally.dropped, 0u);
  // Cut frames are still charged, so the ledger matches the clean run.
  EXPECT_EQ(split.result.final().worker_mb,
            baseline.result.final().worker_mb);
  // The run completes after healing and still learns.
  EXPECT_GT(split.result.final().accuracy, 0.5);
}

TEST(FaultInjection, SapsAdaptiveChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("saps"), adaptive_chaos_spec());
}

TEST(FaultInjection, DPsgdAdaptiveChaosRunBitIdenticalAcrossThreadsAndReruns) {
  check_faulted_invariance(algorithm("dpsgd"), adaptive_chaos_spec());
}

TEST(FaultInjection, CollusionFiresOnQuorumAndLiesLowBelowIt) {
  // Two colluders with a quorum of 2: both are co-selected every round, so
  // the shared-direction attack fires.
  sim::FaultSpec quorum;
  quorum.fault_seed = 5;
  quorum.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion},
                      {.worker = 5, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion}};
  quorum.collude_group = {1, 5};
  quorum.collude_min = 2;
  algos::DPsgd quorum_algo;
  const auto fired = run_faulted(quorum_algo, 0, quorum);
  EXPECT_GT(fired.tally.transformed, 0u);

  // Same schedule but an unreachable quorum of 3: the colluders lie low and
  // the run is BIT-identical to a fault-free one — the closed gate leaves
  // every payload and every decision stream untouched.
  auto low = quorum;
  low.collude_min = 3;
  algos::DPsgd low_algo;
  const auto gated = run_faulted(low_algo, 0, low);
  EXPECT_EQ(gated.tally.transformed, 0u);
  algos::DPsgd clean_algo;
  const auto clean = run_faulted(clean_algo, 0, sim::FaultSpec{});
  expect_identical(clean, gated);
}

TEST(FaultInjection, AttackerScheduleInvariantUnderDefenseChoice) {
  // Receiver-side defenses must not perturb the attacker's schedule: the
  // fault decision streams are keyed only by (seed, round, src, k, dst), and
  // neither a robust merge rule nor clip-norm changes the traffic pattern.
  sim::FaultSpec attack;
  attack.fault_seed = 5;
  attack.drop_prob = 0.1;
  attack.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kModelReplacement},
                      {.worker = 4, .from_round = 2, .to_round = 0,
                       .mode = sim::ByzantineMode::kSilent}};
  const algos::FedAvgConfig fed{.fraction = 1.0, .local_steps = 1};

  algos::FedAvg plain_algo(fed);
  const auto undefended = run_faulted(plain_algo, 0, attack);
  EXPECT_GT(undefended.tally.transformed, 0u);
  EXPECT_GT(undefended.tally.silenced, 0u);

  algos::Dynamics robust;
  robust.merge = compress::MergeRule::kTrimmedMean;
  robust.trim_frac = 0.3;
  algos::FedAvg trimmed_algo(fed, std::move(robust));
  const auto trimmed = run_faulted(trimmed_algo, 0, attack);
  expect_same_tally(undefended.tally, trimmed.tally);

  auto clipped_attack = attack;
  clipped_attack.clip_norm = 1.0;  // aggressive: every data frame clips
  algos::FedAvg clip_algo(fed);
  const auto clipped = run_faulted(clip_algo, 0, clipped_attack);
  EXPECT_EQ(undefended.tally.transformed, clipped.tally.transformed);
  EXPECT_EQ(undefended.tally.silenced, clipped.tally.silenced);
  EXPECT_EQ(undefended.tally.dropped, clipped.tally.dropped);
  EXPECT_GT(clipped.tally.clipped, 0u);
}

TEST(FaultInjection, ModelReplacementDegradesAndDefensesRecover) {
  // 2 of 8 workers (25%, past the acceptance bar's 20%) replace their
  // uploads with the boosted substitution (1 - 2m)·v, m = the server fan-in.
  sim::FaultSpec attack;
  attack.fault_seed = 5;
  attack.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kModelReplacement},
                      {.worker = 6, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kModelReplacement}};
  const algos::FedAvgConfig fed{.fraction = 1.0, .local_steps = 1};

  algos::FedAvg clean_algo(fed);
  const auto clean = run_faulted(clean_algo, 0, sim::FaultSpec{});
  algos::FedAvg plain_algo(fed);
  const auto attacked = run_faulted(plain_algo, 0, attack);
  EXPECT_GT(attacked.tally.transformed, 0u);

  const double clean_acc = clean.result.final().accuracy;
  const double attacked_acc = attacked.result.final().accuracy;
  EXPECT_LT(attacked_acc, clean_acc);

  // Defense 1: a trimmed mean shedding floor(0.3·8) = 2 per tail — exactly
  // the attackers' contributions at every coordinate.
  algos::Dynamics robust;
  robust.merge = compress::MergeRule::kTrimmedMean;
  robust.trim_frac = 0.3;
  algos::FedAvg trimmed_algo(fed, std::move(robust));
  const auto trimmed = run_faulted(trimmed_algo, 0, attack);
  const double trimmed_acc = trimmed.result.final().accuracy;
  EXPECT_GE(trimmed_acc, attacked_acc + 0.5 * (clean_acc - attacked_acc));

  // Defense 2: clip-norm at 2x the clean run's largest model norm leaves
  // honest uploads alone and rescales the boosted substitutions back to the
  // honest scale.
  double max_norm = 0.0;
  for (const auto& p : clean.params) {
    double sum = 0.0;
    for (const float x : p) sum += static_cast<double>(x) * x;
    max_norm = std::max(max_norm, std::sqrt(sum));
  }
  auto clip_attack = attack;
  clip_attack.clip_norm = 2.0 * max_norm;
  algos::FedAvg clip_algo(fed);
  const auto clipped = run_faulted(clip_algo, 0, clip_attack);
  EXPECT_GT(clipped.tally.clipped, 0u);
  const double clipped_acc = clipped.result.final().accuracy;
  EXPECT_GT(clipped_acc, attacked_acc);
}

TEST(FaultInjection, SapsCollusionDegradesAndReputationSelectionRecovers) {
  // 3 of 8 SAPS workers collude: their masked frames carry one shared
  // 10x-RMS direction per round, which pairwise averaging cannot cancel.
  sim::FaultSpec attack;
  attack.fault_seed = 5;
  attack.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion},
                      {.worker = 4, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion},
                      {.worker = 6, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kCollusion}};
  attack.collude_group = {1, 4, 6};
  attack.collude_min = 2;
  const core::SapsConfig saps{.compression = 10.0};

  core::SapsPsgd clean_algo(saps);
  const auto clean = run_faulted(clean_algo, 0, sim::FaultSpec{});
  core::SapsPsgd plain_algo(saps);
  const auto attacked = run_faulted(plain_algo, 0, attack);
  EXPECT_GT(attacked.tally.transformed, 0u);

  const double clean_acc = clean.result.final().accuracy;
  const double attacked_acc = attacked.result.final().accuracy;
  EXPECT_LT(attacked_acc, clean_acc);

  // Attack-aware peer selection: reputation scoring flags the colluders
  // within a round or two, and the matching then isolates them.
  auto defended_cfg = saps;
  defended_cfg.strategy = core::SelectionStrategy::kAdaptiveReputation;
  core::SapsPsgd defended_algo(defended_cfg, {.reputation_decay = 0.5});
  const auto defended = run_faulted(defended_algo, 0, attack);
  const double defended_acc = defended.result.final().accuracy;
  EXPECT_GE(defended_acc, attacked_acc + 0.5 * (clean_acc - attacked_acc));

  // Detection: every colluder flagged, no honest worker flagged.
  EXPECT_EQ(defended.result.suspects, (std::vector<std::size_t>{1, 4, 6}));
}

TEST(FaultInjection, SignFlipAttackDegradesAndRobustAggregationRecovers) {
  // The classic byzantine setting: a parameter server aggregating DENSE
  // model uploads.  Worker 1 sign-flips its upload every round; the plain
  // mean absorbs the poisoned model while a trimmed mean (trim_frac 0.2,
  // floor(0.2·8) = 1 trimmed per tail) sheds exactly the attacker's
  // contribution at every coordinate.
  sim::FaultSpec attack;
  attack.fault_seed = 5;
  attack.byzantine = {{.worker = 1, .from_round = 1, .to_round = 0,
                       .mode = sim::ByzantineMode::kSignFlip}};
  const algos::FedAvgConfig fed{.fraction = 1.0, .local_steps = 1};

  algos::FedAvg clean_algo(fed);
  const auto clean = run_faulted(clean_algo, 0, sim::FaultSpec{});

  algos::FedAvg plain_algo(fed);
  const auto attacked = run_faulted(plain_algo, 0, attack);
  EXPECT_GT(attacked.tally.transformed, 0u);

  algos::Dynamics robust;
  robust.merge = compress::MergeRule::kTrimmedMean;
  robust.trim_frac = 0.2;
  algos::FedAvg robust_algo(fed, std::move(robust));
  const auto defended = run_faulted(robust_algo, 0, attack);

  const double clean_acc = clean.result.final().accuracy;
  const double attacked_acc = attacked.result.final().accuracy;
  const double defended_acc = defended.result.final().accuracy;
  EXPECT_LT(attacked_acc, clean_acc);
  // The robust rule recovers at least half the accuracy the attack cost.
  EXPECT_GE(defended_acc, attacked_acc + 0.5 * (clean_acc - attacked_acc));
}

}  // namespace
}  // namespace saps
