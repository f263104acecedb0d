#include "scenario/registry.hpp"

#include <stdexcept>

namespace saps::scenario {

namespace {

std::string joined(const std::vector<std::string>& keys) {
  std::string out;
  for (const auto& k : keys) {
    if (!out.empty()) out += "|";
    out += k;
  }
  return out;
}

bool same_desc(const ParamDesc& a, const ParamDesc& b) {
  return a.name == b.name && a.type == b.type &&
         a.default_value == b.default_value && a.min_value == b.min_value &&
         a.max_value == b.max_value && a.choices == b.choices;
}

// Appends `descs` to `out`, deduplicating by name; a redefinition that
// DISAGREES (same name, different type/default/range) is a registration bug.
void merge_params(std::vector<ParamDesc>& out,
                  const std::vector<ParamDesc>& descs) {
  for (const auto& d : descs) {
    bool found = false;
    for (const auto& existing : out) {
      if (existing.name != d.name) continue;
      if (!same_desc(existing, d)) {
        throw std::logic_error("Registry: conflicting descriptors for '" +
                               d.name + "'");
      }
      found = true;
      break;
    }
    if (!found) out.push_back(d);
  }
}

}  // namespace

Registry::Registry() {
  // Paper order (the benches' column order), then the extras.
  detail::register_psgd(*this);
  detail::register_topk(*this);
  detail::register_fedavg(*this);
  detail::register_dpsgd(*this);
  detail::register_saps(*this);
  detail::register_qsgd(*this);
  detail::register_workloads(*this);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add_algorithm(AlgorithmEntry entry) {
  if (has_algorithm(entry.key)) {
    throw std::logic_error("Registry: duplicate algorithm '" + entry.key +
                           "'");
  }
  if (!entry.make) {
    throw std::logic_error("Registry: algorithm '" + entry.key +
                           "' has no factory");
  }
  algorithms_.push_back(std::move(entry));
}

void Registry::add_workload(WorkloadEntry entry) {
  if (has_workload(entry.key)) {
    throw std::logic_error("Registry: duplicate workload '" + entry.key + "'");
  }
  if (!entry.make) {
    throw std::logic_error("Registry: workload '" + entry.key +
                           "' has no factory");
  }
  workloads_.push_back(std::move(entry));
}

bool Registry::has_algorithm(const std::string& key) const {
  for (const auto& e : algorithms_) {
    if (e.key == key) return true;
  }
  return false;
}

bool Registry::has_workload(const std::string& key) const {
  for (const auto& e : workloads_) {
    if (e.key == key) return true;
  }
  return false;
}

const AlgorithmEntry& Registry::algorithm(const std::string& key) const {
  for (const auto& e : algorithms_) {
    if (e.key == key) return e;
  }
  throw std::invalid_argument("unknown algorithm '" + key + "' (expected " +
                              joined(algorithm_keys()) + ")");
}

const WorkloadEntry& Registry::workload(const std::string& key) const {
  for (const auto& e : workloads_) {
    if (e.key == key) return e;
  }
  throw std::invalid_argument("unknown workload '" + key + "' (expected " +
                              joined(workload_keys()) + ")");
}

std::vector<std::string> Registry::algorithm_keys(bool paper_only) const {
  std::vector<std::string> keys;
  for (const auto& e : algorithms_) {
    if (!paper_only || e.in_paper_comparison) keys.push_back(e.key);
  }
  return keys;
}

std::vector<std::string> Registry::workload_keys(bool paper_only) const {
  std::vector<std::string> keys;
  for (const auto& e : workloads_) {
    if (!paper_only || e.in_paper_set) keys.push_back(e.key);
  }
  return keys;
}

std::vector<ParamDesc> Registry::algorithm_params() const {
  std::vector<ParamDesc> out;
  for (const auto& e : algorithms_) merge_params(out, e.params);
  return out;
}

std::vector<ParamDesc> Registry::workload_params() const {
  std::vector<ParamDesc> out;
  for (const auto& e : workloads_) merge_params(out, e.params);
  return out;
}

algos::Dynamics make_dynamics(const AlgoBuildContext& ctx) {
  algos::Dynamics dyn;
  dyn.merge = ctx.merge;
  dyn.trim_frac = ctx.trim_frac;
  dyn.reputation_decay = ctx.reputation_decay;
  if (!ctx.failures.empty()) {
    dyn.on_round = [failures = ctx.failures](std::size_t round,
                                             sim::Engine& engine) {
      for (const auto& e : failures) {
        engine.set_active(e.worker, !failure_away(e, round));
      }
    };
  }
  return dyn;
}

ParamSet resolve_entry_params(const std::vector<ParamDesc>& descs,
                              const ParamSet& provided) {
  ParamSet out;
  for (const auto& d : descs) {
    out.set(d.name, provided.has(d.name)
                        ? canonical_value(d, provided.raw(d.name))
                        : canonical_value(d, d.default_value));
  }
  return out;
}

}  // namespace saps::scenario
