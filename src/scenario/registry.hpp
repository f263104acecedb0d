// Self-registering algorithm/workload registry — the single place the
// experiment surface learns what can run.
//
// Each algorithm (src/algos, src/core) and workload registers a factory plus
// its typed parameter descriptors FROM ITS OWN translation unit, so adding a
// new algorithm touches exactly one .cpp: the registration carries the key,
// the --help text, the parameter ranges and the construction logic, and
// every bench/example/test then sees it through the registry.  A factory
// gets the entry's resolved parameters and the scenario's algos::Dynamics
// (failure-schedule hook, merge rule, reputation decay), which the Runner
// builds from the spec, so no algorithm reads the spec itself.  Registration
// happens through the explicit module manifest in registry.cpp (one line per
// owning TU) rather than static-initializer objects: saps_core is a static
// archive, and a static registrar in an otherwise-unreferenced object file
// is silently dropped by the linker, while an explicit call chain is not —
// it also fixes the registration ORDER, which the paper-comparison benches
// rely on for their column layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/algorithm.hpp"
#include "data/dataset.hpp"
#include "scenario/params.hpp"
#include "sim/engine.hpp"

namespace saps::scenario {

/// One worker's dropout window: away for rounds [drop_round, rejoin_round);
/// rejoin_round == 0 means it never rejoins.
struct FailureEvent {
  std::size_t worker = 0;
  std::size_t drop_round = 0;
  std::size_t rejoin_round = 0;
  [[nodiscard]] bool operator==(const FailureEvent&) const = default;
};

/// True when `e.worker` is away in `round`.
[[nodiscard]] inline bool failure_away(const FailureEvent& e,
                                       std::size_t round) {
  return round >= e.drop_round &&
         (e.rejoin_round == 0 || round < e.rejoin_round);
}

struct AlgorithmEntry {
  std::string key;      // registry / spec-file key, e.g. "saps"
  std::string summary;  // one-line help
  // Part of the paper's seven-algorithm comparison (Fig. 3/4/6, Tables
  // III/IV)?  QSGD is registered but compared only in the ablation bench.
  bool in_paper_comparison = true;
  // Can honor a failure schedule (dropout/rejoin rounds)?
  bool supports_failures = false;
  // Can consume the engine's per-round cohort draw (population runs where
  // cohort < population and only the cohort owns live replicas)?
  bool supports_cohort = false;
  std::vector<ParamDesc> params;
  std::function<std::unique_ptr<algos::Algorithm>(const ParamSet&,
                                                  algos::Dynamics)> make;
};

/// A built workload: datasets + deterministic model factory + the paper's
/// per-workload defaults (Table II learning rate).
struct Workload {
  std::string display_name;
  data::Dataset train;
  data::Dataset test;
  sim::ModelFactory factory;
  double default_lr = 0.05;
  // Preferred batch size (0 = use the spec's); real-data workloads bump the
  // paper's Table II batch when the spec left it at the fast default.
  std::size_t preferred_batch = 0;
  std::string note;  // human-readable substitution note ("" = none)
};

/// Shared scenario context a workload scales itself by.
struct WorkloadContext {
  std::size_t workers = 8;
  std::uint64_t seed = 42;
  bool full_scale = false;
  std::size_t samples_per_worker = 150;
  std::size_t test_samples = 400;
};

struct WorkloadEntry {
  std::string key;      // "mnist", "cifar", "resnet", "blob", ...
  std::string summary;  // one-line help
  // One of the paper's Table II workloads (iterated by the figure benches)?
  bool in_paper_set = true;
  // Derives its datasets from the shared samples/test-samples/full context
  // (the bench fast-mode heuristics — e.g. the FedAvg local-step derivation
  // — apply only to these).
  bool scales_with_samples = true;
  std::vector<ParamDesc> params;
  std::function<Workload(const ParamSet&, const WorkloadContext&)> make;
};

class Registry {
 public:
  /// The process-wide registry; built-in modules are registered on first use.
  static Registry& instance();

  void add_algorithm(AlgorithmEntry entry);
  void add_workload(WorkloadEntry entry);

  [[nodiscard]] bool has_algorithm(const std::string& key) const;
  [[nodiscard]] bool has_workload(const std::string& key) const;
  /// Throws std::invalid_argument naming the known keys on a miss.
  [[nodiscard]] const AlgorithmEntry& algorithm(const std::string& key) const;
  [[nodiscard]] const WorkloadEntry& workload(const std::string& key) const;

  /// Keys in registration order (the benches' column order).
  [[nodiscard]] std::vector<std::string> algorithm_keys(
      bool paper_only = false) const;
  [[nodiscard]] std::vector<std::string> workload_keys(
      bool paper_only = false) const;

  /// Union of parameter descriptors over all registered algorithms
  /// (deduplicated by name; shared descriptors — the FedAvg family's — must
  /// agree or registration throws).
  [[nodiscard]] std::vector<ParamDesc> algorithm_params() const;
  /// Union over the workloads.
  [[nodiscard]] std::vector<ParamDesc> workload_params() const;

 private:
  Registry();

  std::vector<AlgorithmEntry> algorithms_;
  std::vector<WorkloadEntry> workloads_;
};

/// Resolves the full ParamSet an entry's factory sees: descriptor defaults
/// overridden by any values present in `provided`.
[[nodiscard]] ParamSet resolve_entry_params(const std::vector<ParamDesc>& descs,
                                            const ParamSet& provided);

namespace detail {
// Built-in module manifest: one hook per TU that owns algorithms or
// workloads, called in paper order by Registry::instance() on first use.
// The bodies live next to the code they register (see the header comment).
void register_psgd(Registry& r);       // algos/psgd.cpp
void register_topk(Registry& r);       // algos/topk_psgd.cpp
void register_fedavg(Registry& r);     // algos/fedavg.cpp: fedavg + sfedavg
void register_dpsgd(Registry& r);      // algos/d_psgd.cpp: dpsgd + dcd
void register_saps(Registry& r);       // core/saps.cpp
void register_qsgd(Registry& r);       // algos/qsgd_psgd.cpp
void register_workloads(Registry& r);  // scenario/workloads.cpp
}  // namespace detail

}  // namespace saps::scenario
