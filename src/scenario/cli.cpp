#include "scenario/cli.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "util/flags.hpp"

namespace saps::scenario {

namespace {

SweepSpec sweep_from_flags(const Flags& flags,
                           const std::string& fallback_sweep_text) {
  const std::string text = flags.has("spec")
                               ? read_spec_file(flags.get_string("spec", ""))
                               : fallback_sweep_text;
  SweepSpec sweep = parse_sweep_text(text);

  // Explicit scenario flags override/extend the base lines.
  for (const auto& d : scenario_params()) {
    if (!flags.has(d.name)) continue;
    for (const auto& axis : sweep.axes) {
      if (axis.key == d.name) {
        throw std::invalid_argument(
            "--" + d.name + " is swept by the suite (sweep." + d.name +
            "); drop the flag or the axis");
      }
    }
    const std::string raw =
        flags.get_string(d.name, d.name == "full" ? "true" : "");
    const auto base =
        std::find_if(sweep.base.begin(), sweep.base.end(),
                     [&](const auto& line) { return line.first == d.name; });
    if (base != sweep.base.end()) {
      base->second = raw;
    } else {
      sweep.base.emplace_back(d.name, raw);
    }
  }
  // Re-parse the merged text: canonicalizes the raw flag values and re-runs
  // the full per-point validation over the final grid.  A point that names
  // an algorithm it cannot run fails here, not midway through the suite.
  sweep = parse_sweep_text(to_sweep_text(sweep));
  for (std::size_t i = 0; i < sweep.point_count(); ++i) {
    const auto point = sweep.point(i);
    check_algorithm_support(point, point.effective_algorithms());
  }
  return sweep;
}

const std::vector<ParamDesc>& suite_params() {
  static const std::vector<ParamDesc> descs = {
      {.name = "suite-threads",
       .type = ParamType::kInt,
       .default_value = "0",
       .min_value = 0,
       .max_value = 1024,
       .help = "concurrent sweep points (0/1 = serial; results and sink "
               "bytes are identical for every value)"},
      {.name = "progress",
       .type = ParamType::kBool,
       .default_value = "false",
       .help = "write one progress line per finished sweep point to stderr"},
  };
  return descs;
}

}  // namespace

void describe_scenario_flags(Flags& flags) {
  // ALL workloads' parameters, matching the set spec_from_flags reads —
  // non-paper workloads (blob, real-mnist) are reachable via --workload
  // too, not just via spec files.
  describe_params(flags, scenario_params());
  flags
      .describe("spec",
                "scenario spec file (key=value lines; flags override file "
                "values — see docs/BENCHMARKS.md)")
      .describe("sink",
                "metric sinks, comma-separated: table, csv[:PATH], "
                "jsonl[:PATH] (no PATH = stdout)");
}

ScenarioSpec scenario_from_flags_or_exit(const Flags& flags,
                                         const std::string& defaults) {
  return or_exit([&] {
    auto spec = spec_from_flags(flags, defaults);
    check_algorithm_support(spec, spec.effective_algorithms());
    return spec;
  });
}

void require_algorithm_or_exit(const ScenarioSpec& spec,
                               const std::string& algo_key) {
  const auto keys = spec.effective_algorithms();
  if (keys.size() != 1 || keys.front() != algo_key) {
    exit_two(std::invalid_argument("--algorithm: this binary runs only " +
                                   algo_key + "; drop the flag or set "
                                   "--algorithm=" + algo_key));
  }
}

SinkList sinks_from_flags_or_exit(const Flags& flags) {
  return or_exit([&] { return make_sinks(flags.get_string("sink", "")); });
}

void describe_suite_flags(Flags& flags) {
  describe_params(flags, suite_params());
}

SweepSpec sweep_from_flags_or_exit(const Flags& flags,
                                   const std::string& fallback_sweep_text) {
  return or_exit([&] { return sweep_from_flags(flags, fallback_sweep_text); });
}

SuiteOptions suite_options_from_flags(const Flags& flags) {
  const auto p = resolve_params_or_exit(flags, suite_params());
  SuiteOptions options;
  options.threads = static_cast<std::size_t>(p.get_int("suite-threads"));
  if (p.get_bool("progress")) options.progress = &std::cerr;
  return options;
}

}  // namespace saps::scenario
