// Suite execution of a SweepSpec grid: independent engines per point, run
// in parallel across a pool, with deterministic sink output and a live
// telemetry view.
//
// Determinism contract.  Every grid point is an independent Runner over its
// own finalized spec — no state is shared between points except read-only
// workloads — so executing points concurrently is bit-identical to running
// them serially in any order.  A point's `threads=` runs its own engine
// pool (results are thread-count invariant by the repo contract).  The
// OBSERVABLE output stays deterministic too: ordered sinks
// (table/csv/jsonl) never see interleaved runs, because each point's sink
// events are buffered and flushed in grid order as the completed prefix
// advances, so the byte stream equals the serial run's.
//
// Liveness comes from Telemetry instead: a thread-safe counter/gauge bag the
// suite and its TelemetrySink update AS POINTS RUN (points done/running,
// runs finished, metric points, rounds/sec, best accuracy so far), readable
// from any thread mid-suite.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/sinks.hpp"
#include "scenario/sweep.hpp"

namespace saps::scenario {

/// Thread-safe named counters/gauges, readable while a suite runs.
class Telemetry {
 public:
  /// Adds `delta` to counter `name` (created at 0).
  void counter_add(const std::string& name, double delta);
  /// Sets gauge `name`.
  void gauge_set(const std::string& name, double value);
  /// Raises gauge `name` to `value` if larger (created on first call).
  void gauge_max(const std::string& name, double value);

  /// Current value (0 when never written).
  [[nodiscard]] double value(const std::string& name) const;
  /// Consistent copy of every counter/gauge.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;
};

/// MetricSink that feeds a Telemetry live (thread-safe, unordered — attach
/// it alongside the ordered sinks).  Maintains:
///   runs_started / runs_finished / metric_points  (counters)
///   best_accuracy                                 (gauge, max over points)
///   rounds_per_sec                                (gauge, last active run)
class TelemetrySink final : public MetricSink {
 public:
  explicit TelemetrySink(Telemetry& telemetry) : telemetry_(&telemetry) {}
  void begin_run(const RunMeta& meta) override;
  void point(const RunMeta& meta, const sim::MetricPoint& p) override;
  void end_run(const RunMeta& meta) override;

 private:
  Telemetry* telemetry_;
  // Wall-clock run starts, keyed by the RunMeta's identity (the Runner keeps
  // it alive across its callbacks).
  std::mutex mu_;
  std::map<const RunMeta*, std::chrono::steady_clock::time_point> starts_;
};

/// One executed grid point.
struct SuitePointResult {
  std::size_t index = 0;
  std::string label;            // SweepSpec::point_label
  ScenarioSpec spec;            // finalized
  std::string workload_name;    // Workload::display_name
  std::vector<RunRecord> runs;  // Runner::run_all order
};

struct SuiteOptions {
  /// Concurrent points: 0 or 1 = serial, N = a pool of N.  Results and sink
  /// bytes are identical for every value.
  std::size_t threads = 0;
  /// Ordered sinks (deterministic, grid-order byte stream); may be null.
  SinkList* sinks = nullptr;
  /// Live counters/gauges; may be null.
  Telemetry* telemetry = nullptr;
  /// One "[done/total] label: ..." line per point, written in grid order as
  /// the completed prefix advances; may be null.
  std::ostream* progress = nullptr;
};

/// Expands and executes a sweep grid.  Distinct workload configurations are
/// built once (serially, in first-use order) and shared read-only across
/// points.  Exceptions from any point propagate (first observed wins).
class SuiteRunner {
 public:
  explicit SuiteRunner(SweepSpec sweep, SuiteOptions options = {});

  /// Runs every grid point; results in grid order.
  [[nodiscard]] std::vector<SuitePointResult> run();

  [[nodiscard]] const SweepSpec& sweep() const noexcept { return sweep_; }

 private:
  SweepSpec sweep_;
  SuiteOptions options_;
};

}  // namespace saps::scenario
