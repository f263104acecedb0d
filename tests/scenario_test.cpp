// Scenario API coverage: the self-registering registry (every key
// constructs), ScenarioSpec parse→print→parse losslessness, golden
// to_spec_text bytes of the committed specs, seeded mutants of spec and sweep
// texts, the friendly exit-2 contract on unknown keys / out-of-range
// parameters, the fast-mode derivations (including the --batch-only
// stale-step-count fix), and the CSV/JSONL metric sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace saps {
namespace {

using scenario::ParamDesc;
using scenario::ParamType;
using scenario::Registry;
using scenario::ScenarioSpec;

// Builds a Flags object from literal tokens (argv[0] implied).
Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::vector<std::string>> keepalive;
  keepalive.push_back(std::move(args));
  auto& stored = keepalive.back();
  std::vector<char*> argv;
  static std::string prog = "scenario_test";
  argv.push_back(prog.data());
  for (auto& a : stored) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Registry, PaperKeysInPaperOrder) {
  const auto& reg = Registry::instance();
  const std::vector<std::string> expect = {"psgd", "topk", "fedavg",
                                           "sfedavg", "dpsgd", "dcd", "saps"};
  EXPECT_EQ(reg.algorithm_keys(/*paper_only=*/true), expect);
  const std::vector<std::string> workloads = {"mnist", "cifar", "resnet"};
  EXPECT_EQ(reg.workload_keys(/*paper_only=*/true), workloads);
  // QSGD is registered (ablation bench) but outside the comparison.
  EXPECT_TRUE(reg.has_algorithm("qsgd"));
  EXPECT_FALSE(reg.algorithm("qsgd").in_paper_comparison);
}

TEST(Registry, EveryAlgorithmKeyConstructsFromDefaults) {
  const auto& reg = Registry::instance();
  for (const auto& key : reg.algorithm_keys()) {
    SCOPED_TRACE(key);
    const auto& entry = reg.algorithm(key);
    const auto params =
        scenario::resolve_entry_params(entry.params, scenario::ParamSet{});
    const auto algo = entry.make(params, {});
    ASSERT_NE(algo, nullptr);
    EXPECT_STRNE(algo->name(), "");
  }
}

TEST(Registry, EveryWorkloadKeyBuildsDeterministically) {
  const auto& reg = Registry::instance();
  scenario::WorkloadContext ctx;
  ctx.workers = 2;
  ctx.samples_per_worker = 10;
  ctx.test_samples = 10;
  for (const auto& key : reg.workload_keys()) {
    SCOPED_TRACE(key);
    const auto& entry = reg.workload(key);
    const auto params =
        scenario::resolve_entry_params(entry.params, scenario::ParamSet{});
    const auto w = entry.make(params, ctx);
    EXPECT_FALSE(w.display_name.empty());
    EXPECT_GT(w.train.size(), 0u);
    EXPECT_GT(w.test.size(), 0u);
    EXPECT_GT(w.default_lr, 0.0);
    // The factory must be deterministic (all replicas start identical).
    auto a = w.factory();
    auto b = w.factory();
    ASSERT_EQ(a.param_count(), b.param_count());
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i], pb[i]) << "param " << i;
    }
  }
}

TEST(Registry, UnknownKeysThrowFriendly) {
  const auto& reg = Registry::instance();
  EXPECT_THROW((void)reg.algorithm("nope"), std::invalid_argument);
  EXPECT_THROW((void)reg.workload("nope"), std::invalid_argument);
  try {
    (void)reg.algorithm("nope");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("saps"), std::string::npos)
        << "error should list the known keys: " << e.what();
  }
}

TEST(ScenarioSpec, DefaultRoundTripsLosslessly) {
  ScenarioSpec spec;
  scenario::finalize_spec(spec);
  const auto text = scenario::to_spec_text(spec);
  const auto reparsed = scenario::parse_spec_text(text);
  EXPECT_TRUE(spec.equivalent(reparsed)) << text;
  // And printing the reparse is byte-identical (canonical forms).
  EXPECT_EQ(text, scenario::to_spec_text(reparsed));
}

TEST(ScenarioSpec, RichSpecRoundTripsLosslessly) {
  ScenarioSpec spec;
  spec.set("workload", "blob");
  spec.set("algorithm", "saps,dcd");
  spec.set("workers", "4");
  spec.set("epochs", "3");
  spec.set("batch", "16");
  spec.set("lr", "0.125");
  spec.set("partition", "shard");
  spec.set("bandwidth", "uniform");
  spec.set("bandwidth-seed", "123");
  spec.set("latency", "0.0015");
  spec.set("latency-matrix",
           "0,0.001,0.002,0.003;0.001,0,0.004,0.005;"
           "0.002,0.004,0,0.006;0.003,0.005,0.006,0");
  spec.set("failures", "2@5-25,3@40");
  spec.set("saps-c", "12.5");
  spec.set("blob-noise", "0.35");
  scenario::finalize_spec(spec);

  ASSERT_EQ(spec.latency_matrix.size(), 16u);
  EXPECT_EQ(spec.latency_matrix[1], 0.001);
  ASSERT_EQ(spec.failures.size(), 2u);
  EXPECT_EQ(spec.failures[0],
            (scenario::FailureEvent{.worker = 2, .drop_round = 5,
                                    .rejoin_round = 25}));
  EXPECT_EQ(spec.failures[1].rejoin_round, 0u);  // never rejoins

  const auto text = scenario::to_spec_text(spec);
  const auto reparsed = scenario::parse_spec_text(text);
  EXPECT_TRUE(spec.equivalent(reparsed)) << text;
  EXPECT_EQ(text, scenario::to_spec_text(reparsed));
}

TEST(ScenarioSpec, UnknownAndInvalidKeysThrow) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("no-such-knob", "1"), std::invalid_argument);
  EXPECT_THROW(spec.set("workers", "1"), std::invalid_argument);   // < 2
  EXPECT_THROW(spec.set("saps-c", "0.5"), std::invalid_argument);  // < 1
  EXPECT_THROW(spec.set("partition", "zebra"), std::invalid_argument);
  EXPECT_THROW(spec.set("epochs", "many"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec_text("workload"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec_text("algorithm=warp-drive"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec_text("failures=1@9-5\nworkers=4"),
               std::invalid_argument);  // rejoin before drop
  EXPECT_THROW(scenario::parse_spec_text("failures=9@5\nworkers=4"),
               std::invalid_argument);  // worker out of range
  EXPECT_THROW(scenario::parse_spec_text("latency-matrix=1,2;3"),
               std::invalid_argument);  // ragged rows
  EXPECT_THROW(scenario::parse_spec_text("latency-matrix=0,0;0,0\nworkers=4"),
               std::invalid_argument);  // wrong arity for 4 workers
  EXPECT_THROW(scenario::parse_spec_text("bandwidth=cities\nworkers=8"),
               std::invalid_argument);  // cities matrix is 14 workers
}

using ScenarioSpecDeathTest = ::testing::Test;

TEST(ScenarioSpecDeathTest, CliViolationsExitTwoWithFriendlyMessage) {
  // The util/flags exit-2 contract, preserved by the generated CLI layer.
  EXPECT_EXIT(
      { (void)scenario::scenario_from_flags_or_exit(
            make_flags({"--saps-c=0.5"})); },
      ::testing::ExitedWithCode(2), "saps-c");
  EXPECT_EXIT(
      { (void)scenario::scenario_from_flags_or_exit(
            make_flags({"--threads=9999"})); },
      ::testing::ExitedWithCode(2), "threads");
  EXPECT_EXIT(
      { (void)scenario::scenario_from_flags_or_exit(
            make_flags({"--spec=/no/such/file.spec"})); },
      ::testing::ExitedWithCode(2), "cannot read");
  EXPECT_EXIT(
      { (void)scenario::sinks_from_flags_or_exit(
            make_flags({"--sink=carrier-pigeon"})); },
      ::testing::ExitedWithCode(2), "unknown sink");
}

TEST(ScenarioSpec, FastModeDerivesFedavgStepsFromResolvedPair) {
  // Defaults: 150 samples / batch 10 → 3 local steps.
  const auto base = scenario::spec_from_flags(make_flags({}));
  EXPECT_EQ(base.params.raw("fedavg-steps"), "3");
  // Overriding --samples re-derives (the behavior the old harness had)...
  const auto more = scenario::spec_from_flags(make_flags({"--samples=300"}));
  EXPECT_EQ(more.params.raw("fedavg-steps"), "6");
  // ...and overriding ONLY --batch re-derives too (the old harness left a
  // stale count computed from the default batch size here).
  const auto batch = scenario::spec_from_flags(make_flags({"--batch=30"}));
  EXPECT_EQ(batch.params.raw("fedavg-steps"), "1");
  // An explicit flag always wins over the derivation.
  const auto expl = scenario::spec_from_flags(
      make_flags({"--batch=30", "--fedavg-steps=7"}));
  EXPECT_EQ(expl.params.raw("fedavg-steps"), "7");
}

TEST(ScenarioSpec, DerivedParametersRederiveAtEachFinalize) {
  // A spec finalized under mnist derives fedavg-steps from samples/batch
  // and materializes the defaults; switched to blob (whose size does not
  // scale with --samples) and finalized again, it must forget both.
  auto spec = scenario::spec_from_flags(make_flags({"--sfedavg-c=50"}));
  ASSERT_EQ(spec.params.raw("fedavg-steps"), "3");
  spec.workload = "blob";
  spec.full = true;
  scenario::finalize_spec(spec);
  EXPECT_EQ(spec.params.raw("fedavg-steps"), "0");  // one local epoch
  EXPECT_EQ(spec.params.raw("topk-c"), "1000");     // paper ratio again
  EXPECT_EQ(spec.params.raw("sfedavg-c"), "50");    // provided: kept
  EXPECT_EQ(spec.params.raw("blob-train"), "640");  // blob defaults filled
  // The printed spec describes the edited run, so it re-parses to it.
  const auto printed = scenario::to_spec_text(spec);
  EXPECT_TRUE(scenario::parse_spec_text(printed).equivalent(spec));
}

TEST(ScenarioSpec, NegativeGrammarNumbersAreRejected) {
  // A '-' where a worker index or round belongs is refused, not wrapped to
  // 2^64 - 1 (a window ending at that round would print back unchanged).
  for (const char* text : {"workers=4\nbyzantine=1@2--1:sign-flip",
                           "workers=4\nfailures=1@3--2",
                           "workers=4\nbyzantine=-1@2:sign-flip"}) {
    SCOPED_TRACE(text);
    try {
      (void)scenario::parse_spec_text(text);
      ADD_FAILURE() << "parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("expects a non-negative integer"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioSpec, FullPresetAppliesUnlessOverridden) {
  const auto full = scenario::spec_from_flags(make_flags({"--full"}));
  EXPECT_EQ(full.workers, 32u);
  EXPECT_EQ(full.epochs, 100u);
  EXPECT_EQ(full.samples, 1875u);
  EXPECT_EQ(full.batch, 50u);
  EXPECT_EQ(full.params.raw("topk-c"), "1000");   // paper ratio
  EXPECT_EQ(full.params.raw("fedavg-steps"), "0");  // E=1 local epochs
  const auto mixed =
      scenario::spec_from_flags(make_flags({"--full", "--workers=16"}));
  EXPECT_EQ(mixed.workers, 16u);
  EXPECT_EQ(mixed.epochs, 100u);
  // Fast mode shrinks the compression ratios.
  const auto fast = scenario::spec_from_flags(make_flags({}));
  EXPECT_EQ(fast.params.raw("topk-c"), "100");
  EXPECT_EQ(fast.params.raw("sfedavg-c"), "20");
}

TEST(ScenarioSpec, FlagsOverrideSpecFileWhichOverridesDefaults) {
  const auto path = ::testing::TempDir() + "/scenario_test_layering.spec";
  {
    std::ofstream out(path);
    out << "# layering test\nworkers=6\nepochs=9\nsaps-c=33\n";
  }
  const auto spec = scenario::spec_from_flags(
      make_flags({"--spec=" + path, "--epochs=2"}));
  EXPECT_EQ(spec.workers, 6u);                  // file value
  EXPECT_EQ(spec.epochs, 2u);                   // CLI wins
  EXPECT_EQ(spec.params.raw("saps-c"), "33");   // file value
  EXPECT_EQ(spec.batch, 10u);                   // default survives
}

TEST(Sinks, CsvAndJsonlCarryEveryPointAndTheSpecHeader) {
  ScenarioSpec spec;
  spec.set("workload", "blob");
  spec.set("algorithm", "saps");
  spec.set("workers", "4");
  spec.set("epochs", "1");
  spec.set("batch", "16");
  spec.set("lr", "0.1");
  spec.set("blob-train", "64");
  spec.set("blob-test", "32");
  spec.set("saps-c", "4");

  std::ostringstream csv_out, jsonl_out;
  scenario::SinkList sinks;
  sinks.add(std::make_unique<scenario::CsvSink>(csv_out));
  sinks.add(std::make_unique<scenario::JsonlSink>(jsonl_out));

  scenario::Runner runner(spec);
  const auto record = runner.run("saps", &sinks);

  const auto csv = csv_out.str();
  EXPECT_NE(csv.find("# workload=blob"), std::string::npos) << csv;
  EXPECT_NE(csv.find("workload,algorithm,round,epoch,loss,accuracy,"
                     "worker_mb,comm_seconds"),
            std::string::npos);
  const auto jsonl = jsonl_out.str();
  EXPECT_NE(jsonl.find("\"event\":\"run_begin\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"algorithm\":\"SAPS-PSGD\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"run_end\""), std::string::npos);
  // One CSV row and one JSONL point per history entry.
  const auto count = [](const std::string& hay, const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count(jsonl, "\"event\":\"point\""),
            record.result.history.size());
  EXPECT_EQ(count(csv, "Blob-MLP,SAPS-PSGD,"),
            record.result.history.size());
}

TEST(Runner, EveryAlgorithmAcceptsAFailureSchedule) {
  // Dropout/rejoin was once SAPS-only; the Dynamics hook lifted the
  // restriction to every registered algorithm.
  const auto& reg = Registry::instance();
  for (const auto& key : reg.algorithm_keys()) {
    SCOPED_TRACE(key);
    EXPECT_TRUE(reg.algorithm(key).supports_failures);
  }
  ScenarioSpec spec;
  spec.set("workload", "blob");
  spec.set("workers", "4");
  spec.set("epochs", "1");
  spec.set("blob-train", "64");
  spec.set("blob-test", "32");
  spec.set("failures", "1@2-4");
  scenario::Runner runner(spec);
  const auto rec = runner.run("dpsgd");
  EXPECT_FALSE(rec.result.history.empty());
}

TEST(ScenarioSpec, FaultKnobsRoundTripLosslessly) {
  ScenarioSpec spec;
  spec.set("workers", "8");
  spec.set("byzantine", "1@2-10:sign-flip,3@1:scaled-noise,5@4:silent");
  spec.set("net-partition", "0.1.2.3|4.5.6.7@2-6,0.1|2.3.4.5.6.7@8");
  spec.set("drop-prob", "0.25");
  spec.set("dup-prob", "0.1");
  spec.set("delay-prob", "0.5");
  spec.set("delay-seconds", "0.125");
  spec.set("fault-seed", "777");
  spec.set("aggregation", "trimmed");
  spec.set("trim-frac", "0.25");
  scenario::finalize_spec(spec);

  ASSERT_EQ(spec.byzantine.size(), 3u);
  EXPECT_EQ(spec.byzantine[0].worker, 1u);
  EXPECT_EQ(spec.byzantine[0].from_round, 2u);
  EXPECT_EQ(spec.byzantine[0].to_round, 10u);
  EXPECT_EQ(spec.byzantine[0].mode, sim::ByzantineMode::kSignFlip);
  EXPECT_EQ(spec.byzantine[1].from_round, 1u);
  EXPECT_EQ(spec.byzantine[1].to_round, 0u);  // no window end: forever
  EXPECT_EQ(spec.byzantine[2].mode, sim::ByzantineMode::kSilent);
  ASSERT_EQ(spec.net_partition.size(), 2u);
  ASSERT_EQ(spec.net_partition[0].groups.size(), 2u);
  EXPECT_EQ(spec.net_partition[0].groups[1],
            (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(spec.net_partition[1].to_round, 0u);
  EXPECT_EQ(spec.fault_seed, 777u);

  const auto text = scenario::to_spec_text(spec);
  const auto reparsed = scenario::parse_spec_text(text);
  EXPECT_TRUE(spec.equivalent(reparsed)) << text;
  EXPECT_EQ(text, scenario::to_spec_text(reparsed));

  // Unset fault-seed resolves deterministically from the top-level seed.
  ScenarioSpec derived;
  scenario::finalize_spec(derived);
  EXPECT_NE(derived.fault_seed, 0u);
  ScenarioSpec again;
  scenario::finalize_spec(again);
  EXPECT_EQ(derived.fault_seed, again.fault_seed);
}

TEST(ScenarioSpec, FaultKnobCombinationsAreValidated) {
  // Byzantine worker index out of the population.
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nbyzantine=4@1:sign-flip"),
      std::invalid_argument);
  // Unknown byzantine mode.
  EXPECT_THROW(scenario::parse_spec_text("workers=4\nbyzantine=1@1:chaotic"),
               std::invalid_argument);
  // A window end before its start, and rounds counted from 1.
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nbyzantine=1@9-5:sign-flip"),
      std::invalid_argument);
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nbyzantine=1@0:sign-flip"),
      std::invalid_argument);
  // Partition groups must be disjoint...
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nnet-partition=0.1|1.2.3@1"),
      std::invalid_argument);
  // ...and inside the population.
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nnet-partition=0.1|2.9@1"),
      std::invalid_argument);
  // delay-prob without a delay duration is a silent no-op — rejected.
  EXPECT_THROW(scenario::parse_spec_text("workers=4\ndelay-prob=0.5"),
               std::invalid_argument);
  // Overlapping failure windows for the same worker.
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nfailures=1@2-10,1@5-20"),
      std::invalid_argument);
  // Unknown aggregation rule.
  EXPECT_THROW(scenario::parse_spec_text("workers=4\naggregation=average"),
               std::invalid_argument);
  // A cohort must leave headroom for the worst simultaneous failure load.
  EXPECT_THROW(
      scenario::parse_spec_text(
          "workers=2\npopulation=100\ncohort=3\nfailures=0@2-8,1@3-9"),
      std::invalid_argument);
  EXPECT_NO_THROW(scenario::parse_spec_text(
      "workers=2\npopulation=100\ncohort=4\nfailures=0@2-8,1@3-9"));
}

TEST(ScenarioSpec, AdaptiveAttackKnobsRoundTripLosslessly) {
  ScenarioSpec spec;
  spec.set("workers", "8");
  spec.set("byzantine",
           "2@3:model-replacement,1@1:collusion,4@1:collusion,6@2-9:collusion");
  spec.set("collude-group", "1.4.6");  // K defaults to 2, printed canonical
  spec.set("adapt-attack", "0.5");
  spec.set("clip-norm", "12.5");
  spec.set("reputation-decay", "0.9");
  scenario::finalize_spec(spec);

  ASSERT_EQ(spec.byzantine.size(), 4u);
  EXPECT_EQ(spec.byzantine[0].mode, sim::ByzantineMode::kModelReplacement);
  EXPECT_EQ(spec.byzantine[1].mode, sim::ByzantineMode::kCollusion);
  EXPECT_EQ(spec.collude_group, (std::vector<std::size_t>{1, 4, 6}));
  EXPECT_EQ(spec.collude_min, 2u);
  EXPECT_EQ(spec.adapt_attack, 0.5);
  EXPECT_EQ(spec.clip_norm, 12.5);
  EXPECT_EQ(spec.reputation_decay, 0.9);

  const auto text = scenario::to_spec_text(spec);
  EXPECT_NE(text.find("collude-group=1.4.6:2"), std::string::npos) << text;
  const auto reparsed = scenario::parse_spec_text(text);
  EXPECT_TRUE(spec.equivalent(reparsed)) << text;
  EXPECT_EQ(text, scenario::to_spec_text(reparsed));

  // An explicit quorum K survives the round trip too.
  ScenarioSpec quorum;
  quorum.set("workers", "8");
  quorum.set("byzantine", "1@1:collusion,4@1:collusion,6@1:collusion");
  quorum.set("collude-group", "1.4.6:3");
  scenario::finalize_spec(quorum);
  EXPECT_EQ(quorum.collude_min, 3u);
  const auto qtext = scenario::to_spec_text(quorum);
  EXPECT_TRUE(quorum.equivalent(scenario::parse_spec_text(qtext))) << qtext;
}

TEST(ScenarioSpec, AdaptiveAttackKnobCombinationsAreValidated) {
  // :collusion events need a collude-group that lists the worker...
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nbyzantine=1@1:collusion"),
      std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\nbyzantine=1@1:collusion,2@1:collusion\n"
                   "collude-group=1.3"),
               std::invalid_argument);
  // ...and a collude-group without any collusion event is dead weight.
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\nbyzantine=1@1:sign-flip\ncollude-group=1.2"),
               std::invalid_argument);
  // Group members validate against the population, once each.
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\nbyzantine=1@1:collusion\ncollude-group=1.9"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\nbyzantine=1@1:collusion\ncollude-group=1.1"),
               std::invalid_argument);
  // The quorum K must be in [1, group size].
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\nbyzantine=1@1:collusion\ncollude-group=1.2:5"),
               std::invalid_argument);
  // Attenuation without an attack to attenuate is a silent no-op — rejected.
  EXPECT_THROW(scenario::parse_spec_text("workers=4\nadapt-attack=0.5"),
               std::invalid_argument);
  // reputation-decay = 1 never forgets; the monitor requires [0, 1).
  EXPECT_THROW(scenario::parse_spec_text("workers=4\nreputation-decay=1"),
               std::invalid_argument);
  // Attack-aware selection needs the monitor that feeds it.
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\nsaps-strategy=reputation"),
      std::invalid_argument);
  EXPECT_NO_THROW(scenario::parse_spec_text(
      "workers=4\nsaps-strategy=reputation\nreputation-decay=0.9"));
  // A worker cannot be scheduled byzantine while a failures= window has it
  // away — the two knobs name the same worker over overlapping windows.
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\nbyzantine=1@2-6:sign-flip\nfailures=1@4-8"),
               std::invalid_argument);
  try {
    (void)scenario::parse_spec_text(
        "workers=4\nbyzantine=1@2-6:sign-flip\nfailures=1@4-8");
    FAIL() << "overlap should throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("byzantine"), std::string::npos) << msg;
    EXPECT_NE(msg.find("failures"), std::string::npos) << msg;
  }
  // Disjoint windows for the same worker are fine.
  EXPECT_NO_THROW(scenario::parse_spec_text(
      "workers=4\nbyzantine=1@2-4:sign-flip\nfailures=1@6-8"));
}

TEST(ScenarioSpec, PopulationKeysResolveAndRoundTrip) {
  ScenarioSpec spec;
  spec.set("workers", "4");
  spec.set("population", "1000");
  spec.set("cohort", "8");
  spec.set("sample-seed", "99");
  scenario::finalize_spec(spec);
  EXPECT_EQ(spec.population, 1000u);
  EXPECT_EQ(spec.cohort, 8u);
  EXPECT_EQ(spec.sample_seed, 99u);
  const auto text = scenario::to_spec_text(spec);
  const auto reparsed = scenario::parse_spec_text(text);
  EXPECT_TRUE(spec.equivalent(reparsed)) << text;
  EXPECT_EQ(text, scenario::to_spec_text(reparsed));

  // The unset defaults resolve to the legacy fully-materialized engine, and
  // the sample seed derives from the top-level seed (printed resolved, so a
  // reparse is equivalent).
  ScenarioSpec legacy;
  scenario::finalize_spec(legacy);
  EXPECT_EQ(legacy.population, legacy.workers);
  EXPECT_EQ(legacy.cohort, legacy.workers);
  EXPECT_NE(legacy.sample_seed, 0u);
}

TEST(ScenarioSpec, PopulationCombinationsAreValidated) {
  // population below the worker (shard-group) count.
  EXPECT_THROW(scenario::parse_spec_text("workers=8\npopulation=4"),
               std::invalid_argument);
  // cohort above the population.
  EXPECT_THROW(
      scenario::parse_spec_text("workers=4\npopulation=100\ncohort=200"),
      std::invalid_argument);
  // Bandwidth matrices and latency matrices are sized by workers.
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\npopulation=100\nbandwidth=uniform"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=2\npopulation=100\nlatency-matrix=0,1;1,0"),
               std::invalid_argument);
  // Failure workers validate against the POPULATION at resolution time:
  // index 50 is out of [0, workers) but inside the population.
  const auto ok = scenario::parse_spec_text(
      "workers=4\npopulation=100\ncohort=8\nfailures=50@2-4");
  EXPECT_EQ(ok.failures.at(0).worker, 50u);
  EXPECT_THROW(scenario::parse_spec_text(
                   "workers=4\npopulation=100\ncohort=8\nfailures=100@2-4"),
               std::invalid_argument);
}

TEST(ScenarioSpec, DuplicateSpecFileKeysThrowWithBothLineNumbers) {
  try {
    (void)scenario::parse_spec_text("workers=4\nepochs=2\nworkers=8");
    FAIL() << "duplicate key should throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate key 'workers'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  }
  // The preset-scanned `full` key is duplicate-checked like any other.
  EXPECT_THROW(scenario::parse_spec_text("full=true\nfull=false"),
               std::invalid_argument);
  // Comments and blank lines don't shift the reported numbers, and distinct
  // keys never trip the check.
  EXPECT_NO_THROW(scenario::parse_spec_text(
      "# header\n\nworkers=4\n\nepochs=2 # trailing comment\n"));
}

TEST(ScenarioSpec, DirichletShorthandCountsAsSettingDirichletAlpha) {
  const auto error = [](const std::string& text) -> std::string {
    try {
      (void)scenario::parse_spec_text(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  // Either order names both lines instead of keeping the last one.
  EXPECT_EQ(error("dirichlet-alpha=0.5\npartition=dirichlet:0.1"),
            "spec line 2: duplicate key 'dirichlet-alpha' (first set on "
            "line 1)");
  EXPECT_EQ(error("partition=dirichlet:0.1\ndirichlet-alpha=0.5"),
            "spec line 2: duplicate key 'dirichlet-alpha' (first set on "
            "line 1)");
  // Alone, the shorthand sets and provides both keys.
  const auto spec = scenario::parse_spec_text("partition=dirichlet:0.1");
  EXPECT_EQ(spec.partition, "dirichlet");
  EXPECT_EQ(spec.dirichlet_alpha, 0.1);
  EXPECT_TRUE(spec.provided("partition"));
  EXPECT_TRUE(spec.provided("dirichlet-alpha"));
}

TEST(ScenarioSpec, PopulationAndCohortFollowWorkersUntilProvided) {
  // A finalized spec re-derives population and cohort after a later
  // workers edit, the way the derived seeds follow seed (the geo-federated
  // example sets workers=14 on a spec the CLI resolved at 8 workers).
  ScenarioSpec spec;
  scenario::finalize_spec(spec);
  ASSERT_EQ(spec.population, 8u);
  spec.set("workers", "14");
  ASSERT_NO_THROW(scenario::finalize_spec(spec));
  EXPECT_EQ(spec.population, 14u);
  EXPECT_EQ(spec.cohort, 14u);
  // Provided values are kept; 0 still means workers.
  ScenarioSpec pinned;
  pinned.set("population", "100");
  pinned.set("cohort", "4");
  scenario::finalize_spec(pinned);
  pinned.set("workers", "14");
  scenario::finalize_spec(pinned);
  EXPECT_EQ(pinned.population, 100u);
  EXPECT_EQ(pinned.cohort, 4u);
  const auto zero = scenario::parse_spec_text("population=0\ncohort=0");
  EXPECT_EQ(zero.population, zero.workers);
  EXPECT_EQ(zero.cohort, zero.workers);
}

// The spec-text oracle's inputs: the key lines of the committed perfbench
// workloads and bench specs (copied, so the suite reads no file), plus one
// spec that sets every grammar knob.
const std::vector<std::pair<std::string, std::string>> kOracleSpecs = {
    {"perfbench/saps-cnn32",
     "workload=cifar\nalgorithm=saps\nworkers=32\nbandwidth=uniform\n"
     "bandwidth-seed=7\nlatency=0.01\nepochs=4\n"},
    {"perfbench/topk-mlp16",
     "workload=blob\nalgorithm=topk\nworkers=16\nblob-features=256\n"
     "blob-hidden=512\nblob-classes=10\nblob-noise=3\nblob-train=3200\n"
     "blob-test=1000\nepochs=3\nbandwidth=uniform\nbandwidth-seed=7\n"},
    {"perfbench/fedavg-pop",
     "workload=cifar\nalgorithm=fedavg\nworkers=32\npopulation=2000\n"
     "cohort=32\nfedavg-steps=5\nlatency=0.01\nepochs=3\n"},
    {"bench/fig3_mnist",
     "workload=mnist\nalgorithm=paper\nworkers=8\nepochs=6\nsamples=150\n"
     "test-samples=400\nbatch=10\nseed=42\n"},
    {"bench/scale_smoke",
     "workload=blob\nalgorithm=fedavg,saps\nworkers=8\npopulation=2000\n"
     "cohort=8\nepochs=1\nseed=42\n"},
    {"grammar",
     "full=true\n"
     "workload=blob\n"
     "algorithm=saps,dcd\n"
     "workers=6\n"
     "epochs=2\n"
     "partition=dirichlet:0.3\n"
     "bandwidth=uniform\n"
     "latency-matrix=0,0.001,0.002,0.003,0.004,0.005;"
     "0.001,0,0.001,0.002,0.003,0.004;0.002,0.001,0,0.001,0.002,0.003;"
     "0.003,0.002,0.001,0,0.001,0.002;0.004,0.003,0.002,0.001,0,0.001;"
     "0.005,0.004,0.003,0.002,0.001,0\n"
     "failures=5@3-9,4@12\n"
     "fault-seed=5\n"
     "drop-prob=0.1\n"
     "delay-prob=0.2\n"
     "delay-seconds=0.01\n"
     "byzantine=0@1:sign-flip,1@2-8:scaled-noise,2@3:silent,"
     "3@1-5:model-replacement,4@1-6:collusion,5@10:collusion\n"
     "collude-group=4.5\n"
     "adapt-attack=0.5\n"
     "clip-norm=3\n"
     "reputation-decay=0.9\n"
     "net-partition=0.1|2.3|4.5@2-6,0|1.2.3|4.5@9\n"
     "aggregation=trimmed\n"
     "trim-frac=0.25\n"},
};

// The key lines of bench/specs/ablation_sweep.spec: four grid points.
constexpr const char* kAblationSweep =
    "workload=mnist\nalgorithm=saps\nworkers=8\nepochs=6\nsamples=150\n"
    "test-samples=400\nbatch=10\nseed=42\nsweep.saps-c=4,10,100,1000\n";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

TEST(ScenarioSpec, SpecTextOfCommittedSpecsMatchesGoldenBytes) {
  // FNV-1a 64 and length of each input's to_spec_text, captured before the
  // knob table generated to_spec_text from the descriptors.
  struct Golden {
    std::uint64_t fnv;
    std::size_t size;
  };
  const std::map<std::string, Golden> golden = {
      {"default", {0xa63038ed157ff6f4ULL, 630}},
      {"perfbench/saps-cnn32", {0x488c437ca2a5a9faULL, 595}},
      {"perfbench/topk-mlp16", {0xb68997d9bbc3c01aULL, 636}},
      {"perfbench/fedavg-pop", {0xa4360529a91a3d6dULL, 578}},
      {"bench/fig3_mnist", {0xa63038ed157ff6f4ULL, 630}},
      {"bench/scale_smoke", {0xc7fa7ecccf44d23eULL, 739}},
      {"grammar", {0x38739f2e71aa0d61ULL, 1092}},
      {"ablation point 0", {0x80ad193f8b3f1e66ULL, 603}},
      {"ablation point 1", {0xbf935c340c83d57dULL, 604}},
      {"ablation point 2", {0x2d3646f41f716329ULL, 605}},
      {"ablation point 3", {0xf9dd2bbe0b79582dULL, 606}},
  };
  std::vector<std::pair<std::string, std::string>> printed;
  ScenarioSpec defaults;
  scenario::finalize_spec(defaults);
  printed.emplace_back("default", scenario::to_spec_text(defaults));
  for (const auto& [name, text] : kOracleSpecs) {
    const auto spec = scenario::parse_spec_text(text);
    printed.emplace_back(name, scenario::to_spec_text(spec));
  }
  const auto sweep = scenario::parse_sweep_text(kAblationSweep);
  ASSERT_EQ(sweep.point_count(), 4u);
  for (std::size_t i = 0; i < sweep.point_count(); ++i) {
    printed.emplace_back("ablation point " + std::to_string(i),
                         scenario::to_spec_text(sweep.point(i)));
  }
  ASSERT_EQ(printed.size(), golden.size());
  for (const auto& [name, text] : printed) {
    const auto& want = golden.at(name);
    EXPECT_EQ(fnv1a(text), want.fnv) << name << ":\n" << text;
    EXPECT_EQ(text.size(), want.size) << name;
  }
}

TEST(ScenarioSpec, CoreDescriptorDefaultsAreWhatADefaultSpecPrints) {
  // The --help defaults and the struct defaults are written apart; every
  // core key the unfinalized default spec prints must show its descriptor's
  // default, and the keys it leaves out are the empty grammar knobs.
  std::map<std::string, std::string> printed;
  std::istringstream lines(scenario::to_spec_text(ScenarioSpec{}));
  std::string line;
  while (std::getline(lines, line)) {
    const auto eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    printed[line.substr(0, eq)] = line.substr(eq + 1);
  }
  // The spec's own keys: every scenario key that no registered algorithm or
  // workload declares.
  const auto& reg = Registry::instance();
  std::set<std::string> registered;
  for (const auto& key : reg.algorithm_keys()) {
    for (const auto& d : reg.algorithm(key).params) registered.insert(d.name);
  }
  for (const auto& key : reg.workload_keys()) {
    for (const auto& d : reg.workload(key).params) registered.insert(d.name);
  }
  std::size_t core = 0;
  for (const auto& d : scenario::scenario_params()) {
    if (registered.contains(d.name)) continue;
    SCOPED_TRACE(d.name);
    ++core;
    const auto it = printed.find(d.name);
    if (it == printed.end()) {
      EXPECT_EQ(d.default_value, "");
      continue;
    }
    EXPECT_EQ(it->second, d.default_value);
    printed.erase(it);
  }
  EXPECT_TRUE(printed.empty()) << printed.begin()->first;
  EXPECT_EQ(core, 39u);
}

// Seeded mutants of the oracle's inputs: bit flips, inserted bytes (mostly
// the grammars' own separators and digits), deleted runs and splices from
// another input.
std::string mutate(std::string text, const std::vector<std::string>& corpus,
                   Rng& rng) {
  constexpr std::string_view kGrammarBytes =
      "=,;:.@-|#\n\t 0123456789abcdeflnprstu";
  const auto byte = [&]() -> char {
    if (rng.next_below(4) == 0) return static_cast<char>(rng.next_below(256));
    return kGrammarBytes[rng.next_below(kGrammarBytes.size())];
  };
  const auto edits = 1 + rng.next_below(2);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const auto pos = rng.next_below(text.size() + 1);
    switch (rng.next_below(4)) {
      case 0:
        if (pos < text.size()) {
          text[pos] = static_cast<char>(text[pos] ^ (1 << rng.next_below(8)));
        }
        break;
      case 1:
        text.insert(pos, 1, byte());
        break;
      case 2:
        text.erase(pos, 1 + rng.next_below(8));
        break;
      default: {
        const auto& donor = corpus[rng.next_below(corpus.size())];
        const auto from = rng.next_below(donor.size() + 1);
        const auto len = std::min<std::uint64_t>(
            64, rng.next_below(donor.size() - from + 1));
        text.insert(pos, donor, from, len);
      }
    }
  }
  return text;
}

// Every worker index and round-window bound a parsed spec holds.  A value
// above INT64_MAX is a negative number that wrapped; it prints back as
// itself, so the round trip alone cannot see it.
std::vector<std::size_t> grammar_numbers(const ScenarioSpec& s) {
  std::vector<std::size_t> out(s.collude_group.begin(), s.collude_group.end());
  for (const auto& e : s.failures) {
    out.insert(out.end(), {e.worker, e.drop_round, e.rejoin_round});
  }
  for (const auto& e : s.byzantine) {
    out.insert(out.end(), {e.worker, e.from_round, e.to_round});
  }
  for (const auto& e : s.net_partition) {
    out.insert(out.end(), {e.from_round, e.to_round});
    for (const auto& group : e.groups) {
      out.insert(out.end(), group.begin(), group.end());
    }
  }
  return out;
}

constexpr auto kMaxGrammarNumber =
    static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());

void expect_no_wrapped_number(const ScenarioSpec& spec,
                              const std::string& mutant) {
  for (const auto v : grammar_numbers(spec)) {
    ASSERT_LE(v, kMaxGrammarNumber) << mutant;
  }
}

// The oracle's spec texts, the empty spec first; the sweep fuzzer adds the
// ablation grid.
std::vector<std::string> oracle_spec_texts() {
  std::vector<std::string> texts = {""};
  for (const auto& entry : kOracleSpecs) texts.push_back(entry.second);
  return texts;
}

TEST(SpecFuzz, MutatedSpecTextsRoundTripOrThrowInvalidArgument) {
  const auto corpus = oracle_spec_texts();
  Rng rng(0x5bec);
  std::size_t parsed = 0;
  constexpr std::size_t kMutants = 10000;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const auto mutant = mutate(corpus[i % corpus.size()], corpus, rng);
    ScenarioSpec spec;
    try {
      spec = scenario::parse_spec_text(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant threw " << e.what() << ":\n" << mutant;
    }
    ++parsed;
    expect_no_wrapped_number(spec, mutant);
    const auto text = scenario::to_spec_text(spec);
    ScenarioSpec again;
    try {
      again = scenario::parse_spec_text(text);
    } catch (const std::exception& e) {
      FAIL() << "printed spec threw " << e.what() << ":\n" << text;
    }
    ASSERT_EQ(scenario::to_spec_text(again), text) << mutant;
    ASSERT_TRUE(spec.equivalent(again)) << mutant;
  }
  EXPECT_GT(parsed, kMutants / 20);
}

TEST(SpecFuzz, MutatedSweepTextsRoundTripOrThrowInvalidArgument) {
  auto corpus = oracle_spec_texts();
  corpus.push_back(kAblationSweep);
  Rng rng(0x5eef);
  std::size_t parsed = 0;
  constexpr std::size_t kMutants = 10000;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const auto mutant = mutate(corpus[i % corpus.size()], corpus, rng);
    scenario::SweepSpec sweep;
    try {
      sweep = scenario::parse_sweep_text(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant threw " << e.what() << ":\n" << mutant;
    }
    ++parsed;
    for (std::size_t p = 0; p < sweep.point_count(); ++p) {
      expect_no_wrapped_number(sweep.point(p), mutant);
    }
    const auto text = scenario::to_sweep_text(sweep);
    scenario::SweepSpec again;
    try {
      again = scenario::parse_sweep_text(text);
    } catch (const std::exception& e) {
      FAIL() << "printed sweep threw " << e.what() << ":\n" << text;
    }
    ASSERT_EQ(scenario::to_sweep_text(again), text) << mutant;
    ASSERT_EQ(again.point_count(), sweep.point_count()) << mutant;
  }
  EXPECT_GT(parsed, kMutants / 20);
}

TEST(Runner, CohortSamplingRequiresSupportingAlgorithm) {
  ScenarioSpec spec;
  spec.set("workload", "blob");
  spec.set("workers", "4");
  spec.set("population", "64");
  spec.set("cohort", "4");
  spec.set("epochs", "1");
  spec.set("blob-train", "64");
  spec.set("blob-test", "32");
  scenario::Runner runner(spec);
  EXPECT_THROW((void)runner.run("dpsgd"), std::invalid_argument);
  const auto record = runner.run("fedavg");
  EXPECT_FALSE(record.result.history.empty());
}

// Minimal RFC 8259 validator (objects of string/number members suffice for
// the sink's line grammar); returns the decoded string members.
class JsonLineChecker {
 public:
  explicit JsonLineChecker(const std::string& line) : s_(line) {}

  // Parses the whole line as one object; gtest-fails on any violation.
  std::map<std::string, std::string> parse() {
    std::map<std::string, std::string> strings;
    expect('{');
    while (true) {
      const auto key = parse_string();
      expect(':');
      if (peek() == '"') {
        strings[key] = parse_string();
      } else {
        parse_number();
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    expect('}');
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes in: " << s_;
    return strings;
  }

 private:
  char peek() {
    EXPECT_LT(pos_, s_.size()) << "truncated JSON: " << s_;
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void expect(char c) {
    ASSERT_EQ(peek(), c) << "at byte " << pos_ << " of: " << s_;
    ++pos_;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control byte in: " << s_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          EXPECT_LE(pos_ + 4, s_.size()) << "truncated \\u in: " << s_;
          if (pos_ + 4 > s_.size()) break;
          out += static_cast<char>(
              std::stoi(s_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          break;
        }
        default:
          ADD_FAILURE() << "bad escape '\\" << esc << "' in: " << s_;
      }
    }
    expect('"');
    return out;
  }
  void parse_number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            std::strchr("+-.eE", s_[pos_]) != nullptr)) {
      ++pos_;
    }
    EXPECT_GT(pos_, start) << "empty number at byte " << start << ": " << s_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Sinks, JsonlEscapesEveryLineToValidJson) {
  // Hostile metadata: quotes, backslashes, newlines (every spec header has
  // them), and sub-0x20 control characters that only \uXXXX can carry.
  scenario::RunMeta meta;
  meta.workload = "blob \"quoted\" \\ back";
  meta.algorithm = "algo\x01\x1f";
  meta.spec_text = "workers=4\nepochs=2\n\ttabbed\x0b\x0c\r\n";
  sim::MetricPoint p;
  p.round = 3;
  p.epoch = 0.5;
  p.loss = 1.25;
  p.accuracy = 0.75;

  std::ostringstream out;
  scenario::JsonlSink sink(out);
  sink.begin_run(meta);
  sink.point(meta, p);
  sink.end_run(meta);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    SCOPED_TRACE(line);
    auto strings = JsonLineChecker(line).parse();
    EXPECT_EQ(strings.at("workload"), meta.workload);
    EXPECT_EQ(strings.at("algorithm"), meta.algorithm);
    if (strings.at("event") == "run_begin") {
      // The spec header round-trips byte-exactly through the escaping.
      EXPECT_EQ(strings.at("spec"), meta.spec_text);
    }
    ++n;
  }
  EXPECT_EQ(n, 3u);  // run_begin, point, run_end
}

TEST(Runner, MakeSinksParsesKindsAndRejectsUnknown) {
  auto list = scenario::make_sinks("table,csv,jsonl");
  EXPECT_FALSE(list.empty());
  EXPECT_TRUE(scenario::make_sinks("").empty());
  EXPECT_THROW((void)scenario::make_sinks("xml"), std::invalid_argument);
}

}  // namespace
}  // namespace saps
