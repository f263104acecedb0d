// Sweep suites: grammar round-trip, deterministic grid expansion, the
// line-numbered rejection list, and the SuiteRunner determinism contract
// (parallel execution bit-identical to serial, including sink bytes).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/suite.hpp"
#include "scenario/sweep.hpp"

namespace saps::scenario {
namespace {

std::string parse_error(const std::string& text) {
  try {
    (void)parse_sweep_text(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SweepGrammar, PlainSpecIsOnePointSuite) {
  const auto sweep = parse_sweep_text("workload=blob\nepochs=2\n");
  EXPECT_TRUE(sweep.axes.empty());
  EXPECT_EQ(sweep.point_count(), 1u);
  EXPECT_EQ(sweep.point_label(0), "base");
  const auto spec = sweep.point(0);
  EXPECT_EQ(spec.workload, "blob");
  EXPECT_EQ(spec.epochs, 2u);
}

TEST(SweepGrammar, RoundTripIsLossless) {
  const std::string text =
      "workload=blob\n"
      "algorithm=saps\n"
      "sweep.saps-c=4,10,100\n"
      "sweep.seed=1,2\n";
  const auto s1 = parse_sweep_text(text);
  const auto printed = to_sweep_text(s1);
  const auto s2 = parse_sweep_text(printed);
  EXPECT_EQ(to_sweep_text(s2), printed);
  ASSERT_EQ(s2.point_count(), s1.point_count());
  for (std::size_t i = 0; i < s1.point_count(); ++i) {
    EXPECT_EQ(s2.point_text(i), s1.point_text(i));
    EXPECT_EQ(s2.point_label(i), s1.point_label(i));
  }
}

TEST(SweepGrammar, OdometerLastAxisFastest) {
  const auto sweep = parse_sweep_text(
      "workload=blob\nsweep.saps-c=4,10\nsweep.seed=1,2,3\n");
  ASSERT_EQ(sweep.point_count(), 6u);
  const std::vector<std::string> want = {
      "saps-c=4 seed=1",  "saps-c=4 seed=2",  "saps-c=4 seed=3",
      "saps-c=10 seed=1", "saps-c=10 seed=2", "saps-c=10 seed=3"};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sweep.point_label(i), want[i]) << "point " << i;
  }
}

TEST(SweepGrammar, SweepingSeedResweepsDerivedSeeds) {
  // Expansion re-parses each point, so sample/bandwidth/fault seeds
  // re-derive from the swept top-level seed instead of freezing.
  const auto sweep = parse_sweep_text("workload=blob\nsweep.seed=1,2\n");
  const auto a = sweep.point(0), b = sweep.point(1);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.sample_seed, b.sample_seed);
  EXPECT_NE(a.bandwidth_seed, b.bandwidth_seed);
  EXPECT_NE(a.fault_seed, b.fault_seed);
}

TEST(SweepGrammar, DirichletShorthandRoundTrips) {
  const auto sweep =
      parse_sweep_text("workload=blob\npartition=dirichlet:0.25\n");
  const auto spec = sweep.point(0);
  EXPECT_EQ(spec.partition, "dirichlet");
  EXPECT_DOUBLE_EQ(spec.dirichlet_alpha, 0.25);
  // The shorthand survives printing (base lines stay raw).
  EXPECT_NE(to_sweep_text(sweep).find("partition=dirichlet:0.25"),
            std::string::npos);
}

TEST(SweepGrammar, DirichletShorthandCountsAsSettingDirichletAlpha) {
  // An alpha axis over a shorthand base line is both swept and set; the
  // point's own spec text names the two lines.
  EXPECT_EQ(parse_error("workload=blob\npartition=dirichlet:0.1\n"
                        "sweep.dirichlet-alpha=0.3,0.7\n"),
            "sweep point 0 (dirichlet-alpha=0.3): spec line 3: duplicate key "
            "'dirichlet-alpha' (first set on line 2)");
  // So is a shorthand axis value over a dirichlet-alpha base line.
  EXPECT_EQ(parse_error("workload=blob\ndirichlet-alpha=0.3\n"
                        "sweep.partition=iid,dirichlet:0.1\n"),
            "sweep point 1 (partition=dirichlet:0.1): spec line 3: duplicate "
            "key 'dirichlet-alpha' (first set on line 2)");
}

TEST(SweepGrammar, RejectsMalformedAndUnknownLines) {
  EXPECT_EQ(parse_error("garbage\n"),
            "sweep spec line 1: expected key=value, got 'garbage'");
  EXPECT_EQ(parse_error("nope=1\n"), "sweep spec line 1: unknown key 'nope'");
  EXPECT_EQ(parse_error("workload=blob\nsweep.nope=1,2\n"),
            "sweep spec line 2: unknown sweep key 'nope'");
}

TEST(SweepGrammar, RejectsDuplicates) {
  EXPECT_EQ(parse_error("epochs=1\nepochs=2\n"),
            "sweep spec line 2: duplicate key 'epochs' (first set on "
            "line 1)");
  EXPECT_EQ(parse_error("sweep.epochs=1,2\nsweep.epochs=3,4\n"),
            "sweep spec line 2: duplicate sweep axis 'sweep.epochs' (first "
            "set on line 1)");
  EXPECT_EQ(parse_error("sweep.epochs=1,2,1\n"),
            "sweep spec line 1: sweep.epochs lists value '1' twice");
  EXPECT_EQ(parse_error("epochs=3\nsweep.epochs=1,2\n"),
            "sweep spec line 2: 'epochs' is both swept and set on line 1");
}

TEST(SweepGrammar, RejectsEmptyAndNonSweepableAxes) {
  EXPECT_EQ(parse_error("sweep.epochs=1,,2\n"),
            "sweep spec line 1: sweep.epochs has an empty value");
  EXPECT_NE(parse_error("sweep.full=true,false\n").find("scale preset"),
            std::string::npos);
  EXPECT_NE(
      parse_error("sweep.threads=1,2\n").find("thread-count invariance"),
      std::string::npos);
}

TEST(SweepGrammar, RejectsSweepingSeedOverPinnedDerivedSeed) {
  const auto msg = parse_error("sample-seed=5\nsweep.seed=1,2\n");
  EXPECT_NE(msg.find("sweeping 'seed' with explicit 'sample-seed' (line 1)"),
            std::string::npos)
      << msg;
  // With no derived seed pinned, sweeping seed is fine.
  EXPECT_EQ(parse_error("sweep.seed=1,2\n"), "");
}

TEST(SweepGrammar, RejectsOversizedGrids) {
  const auto axis = [](const std::string& key) {
    std::string out = "sweep." + key + "=";
    for (int i = 1; i <= 70; ++i) {
      if (i > 1) out += ',';
      out += std::to_string(i);
    }
    out += '\n';
    return out;
  };
  EXPECT_EQ(parse_error(axis("seed") + axis("epochs")),
            "sweep grid has 4900 points; the cap is 4096");
}

TEST(SweepGrammar, PreValidatesEveryPointWithItsLabel) {
  // failures=9@3 is valid per line but names a worker out of range at the
  // workers=4 grid point; the error must name the failing point.
  const auto msg = parse_error("failures=9@3\nsweep.workers=4,16\n");
  EXPECT_NE(msg.find("sweep point 0 (workers=4):"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--failures names worker 9"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// SuiteRunner
// ---------------------------------------------------------------------------

constexpr const char* kSuiteText =
    "workload=blob\n"
    "algorithm=saps\n"
    "workers=4\n"
    "epochs=1\n"
    "samples=48\n"
    "test-samples=32\n"
    "sweep.saps-c=2,4\n"
    "sweep.seed=1,2\n";

struct SuiteOutput {
  std::vector<SuitePointResult> points;
  std::string jsonl;
};

SuiteOutput run_suite(std::size_t threads,
                      const std::string& text = kSuiteText) {
  SuiteOutput out;
  std::ostringstream jsonl;
  SinkList sinks;
  sinks.add(std::make_unique<JsonlSink>(jsonl));
  SuiteOptions options;
  options.threads = threads;
  options.sinks = &sinks;
  SuiteRunner runner(parse_sweep_text(text), options);
  out.points = runner.run();
  out.jsonl = jsonl.str();
  return out;
}

TEST(SuiteRunner, ParallelIsBitIdenticalToSerial) {
  const auto serial = run_suite(0);
  ASSERT_EQ(serial.points.size(), 4u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto parallel = run_suite(threads);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    // Ordered sink bytes are identical, not merely equivalent.
    EXPECT_EQ(parallel.jsonl, serial.jsonl) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      const auto& a = serial.points[i];
      const auto& b = parallel.points[i];
      EXPECT_EQ(b.index, a.index);
      EXPECT_EQ(b.label, a.label);
      EXPECT_EQ(b.workload_name, "Blob-MLP");
      ASSERT_EQ(b.runs.size(), a.runs.size());
      for (std::size_t r = 0; r < a.runs.size(); ++r) {
        EXPECT_EQ(b.runs[r].name, a.runs[r].name);
        // Bit-exact model state and metrics.
        EXPECT_EQ(b.runs[r].final_params, a.runs[r].final_params);
        EXPECT_EQ(b.runs[r].result.final().accuracy,
                  a.runs[r].result.final().accuracy);
        EXPECT_EQ(b.runs[r].traffic_mb, a.runs[r].traffic_mb);
      }
    }
  }
}

TEST(SuiteRunner, PointsKeepTheirEngineThreads) {
  // A point's threads= runs its own engine pool inside the suite's pool.
  // Results are thread-count invariant, so the sink bytes do not move.
  const std::string text = std::string(kSuiteText) + "threads=2\n";
  const auto pooled = run_suite(2, text);
  ASSERT_EQ(pooled.points.size(), 4u);
  for (const auto& point : pooled.points) EXPECT_EQ(point.spec.threads, 2u);
  EXPECT_EQ(pooled.jsonl, run_suite(1, text).jsonl);
}

TEST(SuiteRunner, ProgressLinesFlushInGridOrder) {
  std::ostringstream progress;
  SuiteOptions options;
  options.threads = 4;
  options.progress = &progress;
  SuiteRunner runner(parse_sweep_text(kSuiteText), options);
  (void)runner.run();
  const auto text = progress.str();
  // Grid order regardless of completion order.
  const auto p1 = text.find("[1/4] saps-c=2 seed=1");
  const auto p2 = text.find("[2/4] saps-c=2 seed=2");
  const auto p3 = text.find("[3/4] saps-c=4 seed=1");
  const auto p4 = text.find("[4/4] saps-c=4 seed=2");
  ASSERT_NE(p1, std::string::npos) << text;
  ASSERT_NE(p4, std::string::npos) << text;
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);
}

}  // namespace
}  // namespace saps::scenario
