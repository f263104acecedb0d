// Declarative experiment specification.
//
// A ScenarioSpec composes workload × algorithm(+params) × engine config ×
// link model (latency / compute / jitter, optional per-link latency matrix)
// × failure schedule (dropout/rejoin rounds) into one value that can be
//   - parsed from CLI flags (spec_from_flags; flag names = spec keys),
//   - parsed from a `key=value` spec file (parse_spec_text),
//   - printed back LOSSLESSLY for reproducibility headers (to_spec_text;
//     parse_spec_text(to_spec_text(s)) is equivalent(s) by construction),
//   - executed by scenario::Runner.
//
// Each core key is one row of the knob table in spec.cpp: its ParamDesc and
// the codec that reads the key's canonical text into its field and prints
// the field back.  set() and to_spec_text are generated from that table.  A
// plain knob binds a member pointer; each of the six grammar knobs
// (algorithm, latency-matrix, failures, byzantine, collude-group,
// net-partition) binds a parse/format pair and is parsed in set().  Only
// finalize_spec's bound checks need the resolved worker count.
//
// Resolution order (later wins): struct defaults → --full/fast scale preset
// → the binary's defaults text → spec-file entries → CLI flags → one
// finalize_spec, whose derivations fill population and cohort from workers,
// fast-mode FedAvg local steps from the RESOLVED samples/batch pair, the
// three RNG seeds from the top-level seed, and the defaults of every other
// parameter.  A defaults line counts as provided, as if the spec file began
// with it.  Derivations fill only keys that are not provided(), and every
// such key re-derives at each finalize, so a printed spec re-parses to
// itself and a finalized spec re-derives after a later edit (say of workers
// or workload).  Set parameters through set(): a value written into
// `params` directly is not provided() and is re-derived away.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/faults.hpp"

namespace saps {
class Flags;
}

namespace saps::scenario {

/// The values of a scenario: one field per core key (collude-group fills
/// two), plus the workload and algorithm parameters.
struct ScenarioFields {
  // Run plan.
  std::string workload = "mnist";
  std::vector<std::string> algorithms;  // empty = the paper's seven

  // Engine / schedule (fast-mode defaults; --full switches to Table II).
  std::size_t workers = 8;
  // Participant sampling: `population` is the logical client count;
  // `cohort` is how many of them are drawn — and own a live model replica —
  // each round.  Both follow `workers` unless provided (0 also means
  // workers).  `sample-seed` drives the per-round draw (derived from `seed`
  // when never set).  The defaults reproduce the legacy fully-materialized
  // engine bit-for-bit.
  std::size_t population = 0;
  std::size_t cohort = 0;
  std::uint64_t sample_seed = 0;
  std::size_t epochs = 6;
  std::size_t samples = 150;  // training samples per worker
  std::size_t test_samples = 400;
  std::size_t batch = 10;
  std::size_t eval_every = 0;  // 0 = once per epoch
  std::size_t eval_batch = 256;
  std::uint64_t seed = 42;
  bool full = false;  // paper-scale preset
  std::size_t threads = 0;
  double lr = 0.0;  // 0 = the workload's Table II default
  std::string partition = "iid";  // iid|shard|dirichlet
  std::size_t shards_per_worker = 2;
  double dirichlet_alpha = 0.5;

  // Link model.
  std::string bandwidth = "none";    // none|uniform|cities
  std::uint64_t bandwidth_seed = 0;  // derived from `seed` when never set
  double latency = 0.0;
  double compute_base = 0.0;
  double compute_jitter = 0.0;
  // Per-link one-way latency (row-major workers×workers; empty = scalar).
  std::vector<double> latency_matrix;

  // Failure schedule (dropout at round R, rejoin at R').
  std::vector<FailureEvent> failures;

  // Fault injection (sim::FaultyFabric; windows count FABRIC data rounds).
  std::uint64_t fault_seed = 0;  // derived from `seed` when never set
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  double delay_seconds = 0.0;
  std::vector<sim::ByzantineEvent> byzantine;
  std::vector<sim::PartitionEvent> net_partition;
  // Adaptive adversaries: the colluding group for `:collusion` events
  // ("W.W.W[:K]", K = min co-selected members, default 2), and the
  // attenuation budget that keeps every byzantine transform's relative L2
  // perturbation under adapt_attack (0 = unconstrained).
  std::vector<std::size_t> collude_group;
  std::size_t collude_min = 2;
  double adapt_attack = 0.0;

  // Defenses.  clip-norm: receiver-side L2 clip on every delivered data
  // frame (0 = off; works under all seven algorithms).  reputation-decay:
  // > 0 runs the attack-aware ReputationMonitor (SAPS peers / the FedAvg
  // server score received updates); required by saps-strategy=reputation.
  double clip_norm = 0.0;
  double reputation_decay = 0.0;

  // Robust aggregation (compress::MergeRule; 'plain' = each algorithm's
  // legacy mean path, bit-transparent by construction).
  std::string aggregation = "plain";  // plain|trimmed|median
  double trim_frac = 0.2;

  // Workload + algorithm parameter values, canonical (see ParamDesc).
  ParamSet params;

  [[nodiscard]] bool operator==(const ScenarioFields&) const = default;
};

struct ScenarioSpec : ScenarioFields {
  /// Applies one `key=value` entry (a core key above or any registered
  /// algorithm/workload parameter) and marks it explicitly provided.
  /// `partition=dirichlet:ALPHA` sets (and provides) both partition and
  /// dirichlet-alpha.  Throws std::invalid_argument on unknown keys /
  /// invalid values, grammar knobs' syntax errors included.
  void set(const std::string& key, const std::string& value);

  /// True when `key` was explicitly set (a binary's defaults text, spec
  /// file, CLI, or set()) — derivations use it to never clobber explicit
  /// values.
  [[nodiscard]] bool provided(const std::string& key) const {
    return provided_.contains(key);
  }

  /// Field-wise equality ignoring provenance (the provided-key set).
  [[nodiscard]] bool equivalent(const ScenarioSpec& other) const {
    return ScenarioFields::operator==(other);
  }

  /// The algorithm keys this spec runs (paper seven when unset).
  [[nodiscard]] std::vector<std::string> effective_algorithms() const;

 private:
  std::set<std::string> provided_;
};

/// Every scenario key's descriptor, in --help order: the spec's own keys,
/// then the union of the registered algorithms' parameters, then the
/// workloads'.  Built once.
[[nodiscard]] const std::vector<ParamDesc>& scenario_params();

/// The descriptor of `key` in scenario_params(); nullptr when unknown.
[[nodiscard]] const ParamDesc* find_param(const std::string& key);

/// canonical_value(desc, value), except that the `partition=dirichlet:ALPHA`
/// shorthand stays one value with ALPHA canonical under dirichlet-alpha's
/// descriptor (how sweep files keep it).
[[nodiscard]] std::string canonical_scenario_value(const ParamDesc& desc,
                                                   const std::string& value);

/// Checks worker indices against the resolved population and the
/// cross-knob combinations, applies the derivations, and fills in the
/// selected workload's + effective algorithms' parameter defaults so the
/// spec prints complete.  Idempotent; Runner calls it on its copy.
void finalize_spec(ScenarioSpec& spec);

/// Throws std::invalid_argument when one of `algo_keys` cannot run `spec`:
/// a cohort below the population needs an algorithm with cohort support.
/// finalize_spec leaves this to the caller, because a spec may carry a
/// population while its caller runs only supporting algorithms by key:
/// Runner::run checks the key it runs, and the command-line readers (cli.hpp)
/// check every effective algorithm before anything runs.
void check_algorithm_support(const ScenarioSpec& spec,
                             const std::vector<std::string>& algo_keys);

/// One `key=value` line of a spec or sweep file (1-based line number; key
/// and value trimmed).
struct SpecLine {
  std::size_t lineno = 0;
  std::string key;
  std::string value;
};

/// The `key=value` lines of a spec or sweep file's text: '#' starts a
/// comment and blank lines are skipped.  Any other line without '=' throws
/// std::invalid_argument("<kind> line N: expected key=value, got '...'").
[[nodiscard]] std::vector<SpecLine> scan_spec_lines(const std::string& text,
                                                    const std::string& kind);

/// The text of the file a --spec flag names; throws std::invalid_argument
/// when it cannot be read.
[[nodiscard]] std::string read_spec_file(const std::string& path);

/// Parses a spec file's text (one key=value per line, each key once; the
/// dirichlet: shorthand counts as setting dirichlet-alpha too) and
/// finalizes.  Throws std::invalid_argument with a friendly message on any
/// violation.
[[nodiscard]] ScenarioSpec parse_spec_text(const std::string& text);

/// Lossless reproducibility header.
[[nodiscard]] std::string to_spec_text(const ScenarioSpec& spec);

/// Full CLI pipeline: struct defaults → preset → `defaults` (a spec file's
/// text, each key once) → --spec file → flags → finalize.  A file line or a
/// flag replaces the default of its key.  Throws std::invalid_argument
/// (benches wrap via scenario_from_flags_or_exit in cli.hpp for the exit-2
/// contract).
[[nodiscard]] ScenarioSpec spec_from_flags(const Flags& flags,
                                           const std::string& defaults = "");

}  // namespace saps::scenario
