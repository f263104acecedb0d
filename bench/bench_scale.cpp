// Population-scale sweep — rounds/sec and peak RSS vs. population size.
//
// The engine's replica pool (docs/ARCHITECTURE.md, "Cohort sampling &
// replica pool") keeps only the per-round cohort materialized, so memory
// should be bounded by the cohort while the population grows by orders of
// magnitude.  This bench charts both claims at once: throughput (rounds/sec,
// the cost of the per-round freeze/thaw traffic) and peak RSS (VmHWM) across
// a population sweep at a fixed cohort.  The first sweep entry defaults to
// population == workers, i.e. the legacy fully-materialized engine, as the
// reference point.
//
// Shape to observe: replica state stays bounded by the cohort (the pool
// owns `cohort` replicas regardless of population), so peak RSS grows only
// with the per-population residue — slot map, fabric mailboxes and frozen
// records, which keep a parameter vector per deselected worker under SAPS
// and none under FedAvg (its download overwrites a returning client's
// parameters).  Compare a --cohort=<population> point at the same
// population to see the materialized cost.  Rounds/sec falls with the
// per-round O(population) sweeps, not with replica count.
//
// --json=PATH writes a google-benchmark-compatible report so the CI gate
// (tools/check_kernel_regression.py --filter '^BM_Scale') can compare
// items_per_second (= rounds/sec) against bench/baselines/BENCH_scale.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/params.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

// Peak resident set in MB.  VmHWM is process-lifetime monotonic, which is
// exactly what the sweep wants: populations run in ascending order, so a
// flat column means the larger populations allocated no more than the
// smaller ones.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream iss(line.substr(6));
      double kb = 0.0;
      iss >> kb;
      if (kb > 0.0) return kb / 1024.0;
    }
  }
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

// Each entry is a `population` value, where 0 (= workers) is no sweep point.
std::vector<std::size_t> parse_populations(const std::string& csv) {
  auto desc = *saps::scenario::find_param("population");
  desc.name = "populations";
  desc.min_value = 1;
  std::vector<std::size_t> out;
  for (const auto& token : saps::scenario::split(csv, ',')) {
    if (token.empty()) continue;
    const auto entry = saps::scenario::canonical_value(desc, token);
    out.push_back(saps::scenario::parse_uint(desc.name, entry));
  }
  if (out.empty()) throw std::invalid_argument("--populations: empty sweep");
  return out;
}

const std::vector<saps::scenario::ParamDesc>& bench_params() {
  static const std::vector<saps::scenario::ParamDesc> descs = {
      {.name = "min-seconds",
       .type = saps::scenario::ParamType::kDouble,
       .default_value = "0.2",
       .min_value = 0,
       .help = "repeat each (population, algorithm) run until this much "
               "wall time accumulates (default 0.2, >= 0) so the small "
               "sweep entries aren't timed from one sub-millisecond run"}};
  return descs;
}

// Bench defaults (overridable): the synthetic blob workload keeps the sweep
// about the engine, not dataset I/O; fedavg + saps are the two
// cohort-capable protocol shapes (server round-trip vs. pairwise gossip).  A
// FedAvg round is three local steps on every workload, so the BM_Scale rows
// time the same round whatever the shard size (and keep the rounds of
// bench/baselines/BENCH_scale.json).
constexpr const char* kDefaults =
    "workload=blob\n"
    "algorithm=fedavg,saps\n"
    "epochs=2\n"
    "fedavg-steps=3\n";

}  // namespace

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  flags.describe("populations",
                 "comma-separated population sweep, ascending (default "
                 "8,1000,10000,100000); entries below --workers are clamped "
                 "up to the worker count (legacy materialized engine)");
  flags.describe("json",
                 "write a google-benchmark-compatible JSON report to PATH "
                 "(names BM_Scale/<algo>/<population>, items_per_second = "
                 "rounds/sec) for tools/check_kernel_regression.py");
  saps::scenario::describe_params(flags, bench_params());
  saps::exit_on_help_or_unknown(flags, argv[0]);
  const auto bench = saps::scenario::resolve_params_or_exit(
      flags, bench_params());
  const double min_seconds = bench.get_double("min-seconds");
  std::vector<std::size_t> populations;
  if (flags.has("populations")) {
    populations = saps::scenario::or_exit([&] {
      return parse_populations(flags.get_string("populations", ""));
    });
  }

  // `--cohort=N` alone is legal for the sweep (each entry sets its own
  // population and clamps the cohort to it), but the spec validates cohort
  // against its own population first: seed that, under any --spec
  // population, with the key's maximum, which fits every cohort and worker
  // count.  So only the entries, not this base spec, are checked for cohort
  // support.
  std::string defaults = kDefaults;
  const bool seeded = flags.has("cohort") && !flags.has("population");
  const auto seed_population = static_cast<std::size_t>(
      saps::scenario::find_param("population")->max_value);
  if (seeded) {
    defaults += "population=" + std::to_string(seed_population) + "\n";
  }
  const auto spec = saps::scenario::or_exit(
      [&] { return saps::scenario::spec_from_flags(flags, defaults); });
  auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);
  // cohort=64 matches the acceptance scenario `population=100000 cohort=64`.
  const std::size_t cohort = spec.provided("cohort") ? spec.cohort : 64;
  if (populations.empty()) {
    // No --populations: a population from --population or --spec runs alone
    // (the CI smoke path); otherwise sweep from the legacy materialized
    // engine up to the acceptance scale.
    if (spec.provided("population") &&
        !(seeded && spec.population == seed_population)) {
      populations = {spec.population};
    } else {
      populations = {8, 1000, 10000, 100000};
    }
  }

  // The dataset is sharded by --workers regardless of population, so the
  // workload stays shareable; population only widens the sampling frame.
  // Every entry is checked before the first one runs.
  std::vector<saps::scenario::ScenarioSpec> entries;
  for (const auto p : populations) {
    auto& s = entries.emplace_back(spec);
    s.set("population", std::to_string(std::max(p, s.workers)));
    s.set("cohort", std::to_string(std::min(cohort, s.population)));
    saps::scenario::or_exit([&] {
      saps::scenario::check_algorithm_support(s, s.effective_algorithms());
    });
  }

  const std::string json_path = flags.get_string("json", "");
  std::ofstream json;
  if (!json_path.empty()) {
    json.open(json_path);
    if (!json) {
      std::cerr << "--json: cannot open '" << json_path << "' for writing\n";
      return 2;
    }
  }

  saps::scenario::Runner base(spec);
  const auto& workload = base.workload();
  std::cout << "=== Population sweep (" << workload.display_name
            << ", cohort<=" << cohort << "): rounds/sec and peak RSS ===\n";

  struct Row {
    std::size_t population, cohort, rounds;
    std::string algo;
    double seconds, rps, rss_mb;
  };
  std::vector<Row> rows;
  for (const auto& s : entries) {
    saps::scenario::Runner runner(s, workload);
    for (const auto& algo : s.effective_algorithms()) {
      // Runs are deterministic (fresh engine per run), so repetitions are
      // pure timing samples; only the first streams to the sinks.
      double total = 0.0;
      std::size_t reps = 0, rounds = 0;
      std::string name;
      while (reps == 0 || (total < min_seconds && reps < 1000)) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto rec = runner.run(algo, reps == 0 ? &sinks : nullptr);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        total += dt.count();
        ++reps;
        rounds = rec.result.final().round;
        name = rec.name;
      }
      const auto done = static_cast<double>(rounds * reps);
      rows.push_back({s.population, s.cohort, rounds, name, total / reps,
                      total > 0.0 ? done / total : 0.0, peak_rss_mb()});
    }
  }

  saps::Table table({"population", "cohort", "algorithm", "rounds", "seconds",
                     "rounds_per_sec", "peak_rss_mb"});
  for (const auto& r : rows) {
    table.add_row({saps::Table::num(static_cast<long long>(r.population)),
                   saps::Table::num(static_cast<long long>(r.cohort)), r.algo,
                   saps::Table::num(static_cast<long long>(r.rounds)),
                   saps::Table::num(r.seconds, 3), saps::Table::num(r.rps, 2),
                   saps::Table::num(r.rss_mb, 1)});
  }
  std::cout << table.to_aligned() << "\n";
  std::cout << "peak_rss_mb = VmHWM (monotonic; sweep runs ascending): "
               "replica state is bounded by\nthe cohort, so the column grows "
               "only with per-population bookkeeping and frozen\nrecords (a "
               "parameter vector per deselected SAPS worker, none under "
               "FedAvg) —\ncompare a --cohort=<population> point to see the "
               "materialized cost.\n";

  if (json.is_open()) {
    json << "{\"context\":{\"bench\":\"bench_scale\"},\"benchmarks\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      json << (i ? "," : "") << "\n  {\"name\":\"BM_Scale/" << r.algo << "/"
           << r.population << "\",\"run_type\":\"iteration\""
           << ",\"items_per_second\":" << saps::scenario::format_double(r.rps)
           << ",\"peak_rss_mb\":" << saps::scenario::format_double(r.rss_mb)
           << "}";
    }
    json << "\n]}\n";
  }
  return 0;
}
