// Traced compositions of the benchmarked algorithms.
//
// Each function re-composes one algorithm's training loop from the same
// public calls its src/ implementation makes (engine, coordinator, fabric,
// wire codecs, compressors), in the same order, wrapping every call in a
// trace span.  On the configurations the benchmark runs they reproduce the
// algorithm bit for bit; run.py checks that against an untraced
// scenario::Runner run (final accuracy, final loss, traffic, simulated
// communication time) before it reports any per-layer number.
#pragma once

#include <map>
#include <string>

#include "scenario/spec.hpp"
#include "sim/engine.hpp"

namespace perfbench {

struct TracedRun {
  saps::sim::RunResult result;
  // Work counts recorded at the same call boundaries as the spans, keyed by
  // per-layer metric name (e.g. "sim.sgd_steps", "net.frames_sent").
  std::map<std::string, double> counters;
};

/// Runs `algo_key` ("saps", "topk" or "fedavg") on `engine` under `spec`'s
/// parameters with spans around every library call.  Throws
/// std::invalid_argument for an algorithm or a configuration (failure
/// schedule, fault injection, robust merge, ...) the compositions do not
/// reproduce.
[[nodiscard]] TracedRun run_traced(const std::string& algo_key,
                                   saps::sim::Engine& engine,
                                   const saps::scenario::ScenarioSpec& spec);

}  // namespace perfbench
