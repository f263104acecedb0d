// Unified scenario executor: ScenarioSpec in, RunRecords + streamed
// MetricPoints out.
//
// A Runner builds the spec's workload ONCE (datasets are the expensive
// part), then executes algorithms against fresh engines — one engine per
// run, the same seed discipline the benches always used, so a suite of runs
// is bit-identical to running each algorithm in its own process.  Metric
// points stream to the attached sinks as the algorithm produces them (via
// sim::Engine's metric observer).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/bandwidth.hpp"
#include "scenario/sinks.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"

namespace saps::scenario {

/// One executed run: what the algorithm returned, and what the Runner read
/// from its engine afterwards, including the final averaged parameters for
/// checkpointing.
struct RunRecord {
  std::string name;  // display name (RunResult::algorithm)
  sim::RunResult result;
  double traffic_mb = 0.0;     // mean per-worker cumulative traffic
  double comm_seconds = 0.0;   // cumulative simulated communication time
  double control_bytes = 0.0;  // the fabric's control ledger (SAPS only)
  std::vector<float> final_params;
};

/// Builds the spec's workload (datasets + model factory).  Exposed so sweep
/// benches can share one workload across many Runner instances.
[[nodiscard]] Workload build_workload(const ScenarioSpec& spec);

class Runner {
 public:
  /// Finalizes a copy of `spec` and builds its workload.
  explicit Runner(ScenarioSpec spec);
  /// As above but borrows a prebuilt workload (must outlive the Runner);
  /// used by sweeps that vary only link/algorithm knobs.
  Runner(ScenarioSpec spec, const Workload& workload);

  // Non-copyable and non-movable: workload_ may point at owned_workload_,
  // which a defaulted move would silently dangle.
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const Workload& workload() const noexcept {
    return *workload_;
  }

  /// The resolved engine configuration (workload LR / preferred batch
  /// applied) and link environment.
  [[nodiscard]] sim::SimConfig sim_config() const;
  [[nodiscard]] std::optional<net::BandwidthMatrix> bandwidth() const;

  /// A fresh engine under the spec (one per run keeps runs independent).
  [[nodiscard]] sim::Engine make_engine() const;

  /// Runs one registered algorithm.  Throws std::invalid_argument on an
  /// unknown key, an out-of-range parameter, or a cohort the algorithm
  /// cannot sample (check_algorithm_support).
  [[nodiscard]] RunRecord run(const std::string& algo_key,
                              SinkList* sinks = nullptr);

  /// Runs spec.effective_algorithms() in order (the paper's seven-way
  /// comparison by default).
  [[nodiscard]] std::vector<RunRecord> run_all(SinkList* sinks = nullptr);

 private:
  ScenarioSpec spec_;
  Workload owned_workload_;
  const Workload* workload_;
};

}  // namespace saps::scenario
