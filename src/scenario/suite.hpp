// Suite execution of a SweepSpec grid: independent engines per point, run
// in parallel across a pool, with deterministic sink output.
//
// Determinism contract.  Every grid point is an independent Runner over its
// own finalized spec — no state is shared between points except read-only
// workloads — so executing points concurrently is bit-identical to running
// them serially in any order.  A point's `threads=` runs its own engine
// pool (results are thread-count invariant by the repo contract).  The
// OBSERVABLE output stays deterministic too: ordered sinks
// (table/csv/jsonl) never see interleaved runs, because each point's sink
// events are buffered and flushed in grid order as the completed prefix
// advances, so the byte stream equals the serial run's.  The progress
// stream (SuiteOptions::progress) is the liveness view, in the same order.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/sinks.hpp"
#include "scenario/sweep.hpp"

namespace saps::scenario {

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

 private:
  SweepSpec sweep_;
  SuiteOptions options_;
};

}  // namespace saps::scenario
