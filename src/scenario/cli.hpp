// Command-line integration of the Scenario API.
//
// A bench/example main() becomes:
//
//   saps::Flags flags(argc, argv);
//   saps::scenario::describe_scenario_flags(flags);
//   saps::scenario::describe_params(flags, bench_params());
//   saps::exit_on_help_or_unknown(flags, argv[0]);
//   auto spec = saps::scenario::scenario_from_flags_or_exit(
//       flags, "workload=blob\nepochs=2\n");  // the binary's defaults
//   auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);
//   const auto p = saps::scenario::resolve_params_or_exit(flags,
//                                                         bench_params());
//
// --help output is GENERATED from the registry's parameter descriptors (one
// line per registered algorithm/workload parameter plus the spec's core
// keys), so a newly registered algorithm shows up in every bench's help with
// zero per-binary wiring.  Every value from the command line is parsed and
// checked once, by a descriptor; a bad one prints a friendly message to
// stderr and exits 2 (params.hpp's or_exit).
//
// Precondition of every `_or_exit` reader: exit_on_help_or_unknown already
// ran, so --help has printed and exited and no unknown flag is left.
#pragma once

#include <string>

#include "scenario/sinks.hpp"
#include "scenario/spec.hpp"
#include "scenario/suite.hpp"

namespace saps {
class Flags;
}

namespace saps::scenario {

/// Registers --help lines for every spec core key, every registered
/// algorithm parameter, the paper workloads' parameters, and the --spec /
/// --sink meta-flags.
void describe_scenario_flags(Flags& flags);

/// spec_from_flags(flags, defaults) with the exit-2 contract.  `defaults` is
/// the binary's own defaults, in spec-file syntax, under --spec and flags.
/// Every effective algorithm must pass check_algorithm_support.
[[nodiscard]] ScenarioSpec scenario_from_flags_or_exit(
    const Flags& flags, const std::string& defaults = "");

/// Exits 2 unless `spec` runs exactly `algo_key`: a binary that runs one
/// algorithm by key refuses any other --algorithm list instead of ignoring
/// it.
void require_algorithm_or_exit(const ScenarioSpec& spec,
                               const std::string& algo_key);

/// Builds the sinks named by --sink (empty list when absent); exit-2 on an
/// unknown sink kind or unopenable path.
[[nodiscard]] SinkList sinks_from_flags_or_exit(const Flags& flags);

/// Registers --help lines for the suite meta-flags (--suite-threads,
/// --progress) on top of describe_scenario_flags.
void describe_suite_flags(Flags& flags);

/// The suite's sweep grid: the --spec file's text when given (its `sweep.`
/// lines are optional — a plain spec file is a one-point suite), else
/// `fallback_sweep_text`.  Explicitly provided scenario flags then override
/// or extend the BASE lines, so `--epochs=1` rescales a committed sweep file
/// without editing it; a flag naming a swept key is rejected (drop the flag
/// or the axis).  Every grid point's effective algorithms must pass
/// check_algorithm_support.  Exit-2 contract.
[[nodiscard]] SweepSpec sweep_from_flags_or_exit(
    const Flags& flags, const std::string& fallback_sweep_text);

/// SuiteOptions from --suite-threads (in [0, 1024], like `threads`) and
/// --progress (a bool; progress lines go to stderr so stdout tables stay
/// clean).  Exit-2 contract.  Sinks stay null — wire them at the call site.
[[nodiscard]] SuiteOptions suite_options_from_flags(const Flags& flags);

}  // namespace saps::scenario
