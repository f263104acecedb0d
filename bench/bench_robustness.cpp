// Robustness sweep — final accuracy under adversarial workers, with and
// without robust aggregation.
//
// Every registered algorithm runs against four fault scenarios on the fast
// blob preset: a clean baseline, a sign-flipping byzantine worker, a
// scaled-noise byzantine worker, and a half/half network partition that
// heals mid-run — each under the three aggregation rules (plain mean,
// trimmed mean, coordinate median).  All runs share one workload and one
// seed, so the grid is bit-reproducible and thread-invariant (the chaos
// suite in tests/fault_injection_test.cpp pins that contract).
//
// Shape to observe: for DENSE server-side aggregation (the fedavg family
// with full participation) the robust rules recover most of the accuracy a
// sign-flip attacker destroys — the classic byzantine-tolerance setting.
// For SPARSIFIED updates (topk, sfedavg) robust rules can *hurt*: the
// coordinate median collapses to zero wherever fewer than half the workers
// selected a coordinate, and the trimmed mean sheds the largest honest
// contribution at sparse coordinates (docs/ARCHITECTURE.md, "Fault
// injection & robust aggregation").  SAPS exchanges pairwise (m = 2), where
// trimming and medians reduce to the plain midpoint — attack tolerance
// there comes from gossip averaging, not the merge rule.
//
// On top of the classic grid, --grid=adaptive (or the default all) runs the
// ADAPTIVE adversary grid on the two protocol shapes (fedavg, saps): 20%
// model-replacement, a 3-worker collusion ring, and an attenuated
// ("adaptive") model-replacement, each against the receiver-side defenses —
// clip-norm (probed from the clean run's model norm), the trimmed mean, and
// SAPS's attack-aware reputation selection.  Every attacked run also scores
// detection precision/recall from the observe-only reputation monitor.
//
// --json=PATH writes a google-benchmark-compatible report (names
// BM_Robustness/<algo>/<attack>/<aggregation-or-defense>, items_per_second
// = final accuracy — deterministic, so the CI gate compares like with like)
// for tools/check_kernel_regression.py --filter '^BM_Robustness'.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/params.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

struct Attack {
  const char* name;
  const char* byzantine;  // --byzantine value, or nullptr
  bool partition;         // half/half --net-partition over rounds [2, 6)
};

constexpr Attack kAttacks[] = {
    {"none", nullptr, false},
    {"sign-flip", "0@1:sign-flip", false},
    {"scaled-noise", "0@1:scaled-noise", false},
    {"partition", nullptr, true},
};

constexpr const char* kAggregations[] = {"plain", "trimmed", "median"};

const std::vector<saps::scenario::ParamDesc>& bench_params() {
  static const std::vector<saps::scenario::ParamDesc> descs = {
      {.name = "grid",
       .type = saps::scenario::ParamType::kString,
       .default_value = "all",
       .help = "which sweep to run: classic (attack x aggregation over all "
               "algorithms), adaptive (adaptive adversaries x defenses on "
               "fedavg/saps), or all (default)",
       .choices = {"classic", "adaptive", "all"}}};
  return descs;
}

// Half/half partition spec text for a given worker count, e.g.
// "0.1.2.3|4.5.6.7@2-6" for 8 workers.
std::string half_partition(std::size_t workers) {
  std::string groups;
  for (std::size_t w = 0; w < workers; ++w) {
    if (w == workers / 2) {
      groups += '|';
    } else if (w > 0) {
      groups += '.';
    }
    groups += std::to_string(w);
  }
  return groups + "@2-6";
}

// --- adaptive adversary grid -------------------------------------------------

struct AdaptiveAttack {
  std::string name;
  std::string byzantine;               // --byzantine value (empty = clean)
  std::string collude_group;           // --collude-group value, or empty
  double adapt = 0.0;                  // --adapt-attack attenuation budget
  std::vector<std::size_t> attackers;  // ground truth for detection metrics
};

// ~20% of the population runs a boosted model-replacement from round 1.
AdaptiveAttack model_replace_attack(std::size_t workers) {
  AdaptiveAttack atk{.name = "model-replace"};
  const std::size_t n = std::max<std::size_t>(2, workers / 5);
  for (std::size_t w = 0; w < n; ++w) {
    if (w > 0) atk.byzantine += ',';
    atk.byzantine += std::to_string(w) + "@1:model-replacement";
    atk.attackers.push_back(w);
  }
  return atk;
}

// Three colluders share a per-round malicious direction; the ring only
// fires with all three live (quorum 3).
AdaptiveAttack collusion_attack() {
  return {.name = "collusion",
          .byzantine = "0@1:collusion,1@1:collusion,2@1:collusion",
          .collude_group = "0.1.2:3",
          .attackers = {0, 1, 2}};
}

double l2_norm(const std::vector<float>& v) {
  double acc = 0.0;
  for (const float x : v) acc += static_cast<double>(x) * x;
  return std::sqrt(acc);
}

}  // namespace

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  flags.describe("json",
                 "write a google-benchmark-compatible JSON report to PATH "
                 "(names BM_Robustness/<algo>/<attack>/<aggregation>, "
                 "items_per_second = final accuracy) for "
                 "tools/check_kernel_regression.py");
  saps::scenario::describe_params(flags, bench_params());
  saps::exit_on_help_or_unknown(flags, argv[0]);
  const auto p = saps::scenario::resolve_params_or_exit(flags, bench_params());
  const std::string grid = p.get_string("grid");

  // Bench defaults (overridable): the blob preset is the test suites' fast
  // workload, every registered algorithm runs, and full participation and
  // one local step make the fedavg family the textbook dense-aggregation
  // byzantine setting.
  const auto& registry = saps::scenario::Registry::instance();
  std::string algorithms;
  for (const auto& key : registry.algorithm_keys()) {
    algorithms += (algorithms.empty() ? "" : ",") + key;
  }
  const auto spec = saps::scenario::or_exit([&] {
    return saps::scenario::spec_from_flags(
        flags, "workload=blob\nalgorithm=" + algorithms +
                   "\nepochs=2\nfedavg-frac=1.0\nfedavg-steps=1\n");
  });
  // Only the algorithms a selected grid runs must support the spec's
  // cohort: the classic grid runs every effective one, the adaptive grid
  // fedavg and saps.
  std::vector<std::string> adaptive_keys;
  for (const auto& k : spec.effective_algorithms()) {
    if (k == "fedavg" || k == "saps") adaptive_keys.push_back(k);
  }
  saps::scenario::or_exit([&] {
    saps::scenario::check_algorithm_support(
        spec, grid == "adaptive" ? adaptive_keys : spec.effective_algorithms());
  });
  auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);
  const bool user_trim = spec.provided("trim-frac");
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
  std::cout << "=== Robustness sweep (" << workload.display_name
            << ", workers=" << spec.workers
            << "): final accuracy under attack ===\n";

  struct Row {
    std::string algo, attack, agg;
    double accuracy, loss, worker_mb;
    double precision = -1.0, recall = -1.0;  // detection metrics; -1 = n/a
  };
  std::vector<Row> rows;
  bool first_run = true;
  // recovery = (defended - attacked) / (clean - attacked).
  const auto find = [&rows](const std::string& algo, const std::string& attack,
                            const std::string& agg) -> const Row* {
    for (const auto& r : rows) {
      if (r.algo == algo && r.attack == attack && r.agg == agg) return &r;
    }
    return nullptr;
  };

  if (grid != "adaptive") {
    for (const auto& attack : kAttacks) {
      for (const auto* agg : kAggregations) {
        auto s = spec;
        if (attack.byzantine != nullptr) s.set("byzantine", attack.byzantine);
        if (attack.partition) {
          s.set("net-partition", half_partition(s.workers));
        }
        s.set("aggregation", agg);
        saps::scenario::Runner runner(s, workload);
        for (const auto& algo : s.effective_algorithms()) {
          const auto rec = runner.run(algo, first_run ? &sinks : nullptr);
          first_run = false;
          const auto& fin = rec.result.final();
          rows.push_back({rec.name, attack.name, agg, fin.accuracy, fin.loss,
                          rec.traffic_mb});
        }
      }
    }

    saps::Table table({"algorithm", "attack", "aggregation", "accuracy",
                       "loss", "worker_mb"});
    for (const auto& r : rows) {
      table.add_row({r.algo, r.attack, r.agg, saps::Table::num(r.accuracy, 4),
                     saps::Table::num(r.loss, 4),
                     saps::Table::num(r.worker_mb, 3)});
    }
    std::cout << table.to_aligned() << "\n";

    // Recovery summary: how much of the accuracy a sign-flip attacker
    // destroys does each robust rule win back?
    std::cout << "sign-flip recovery (fraction of lost accuracy won back; "
                 "dense aggregation is where\nrobust rules shine — see the "
                 "sparse-update caveat in docs/ARCHITECTURE.md):\n";
    std::vector<std::string> display_names;
    for (const auto& r : rows) {
      if (std::find(display_names.begin(), display_names.end(), r.algo) ==
          display_names.end()) {
        display_names.push_back(r.algo);
      }
    }
    for (const auto& algo : display_names) {
      const Row* clean = find(algo, "none", "plain");
      const Row* attacked = find(algo, "sign-flip", "plain");
      if (clean == nullptr || attacked == nullptr) continue;
      const double lost = clean->accuracy - attacked->accuracy;
      std::cout << "  " << algo << ": lost=" << saps::Table::num(lost, 4);
      for (const char* agg : {"trimmed", "median"}) {
        const Row* defended = find(algo, "sign-flip", agg);
        if (defended == nullptr) continue;
        std::cout << "  " << agg << "=";
        if (lost > 1e-9) {
          std::cout << saps::Table::num(
              (defended->accuracy - attacked->accuracy) / lost, 2);
        } else {
          std::cout << "n/a";
        }
      }
      std::cout << "\n";
    }
  }

  // --- adaptive adversary grid: attacks x receiver-side defenses ------------
  const std::size_t adaptive_first_row = rows.size();
  std::vector<std::string> adaptive_names;  // display names, insertion order
  if (grid != "classic") {
    if (spec.workers < 8) {
      std::cout << "(adaptive grid skipped: needs workers >= 8 so a 20% "
                   "model-replacement squad and a\n 3-worker collusion ring "
                   "both leave an honest majority)\n";
      adaptive_keys.clear();
    }
    std::vector<AdaptiveAttack> attacks{model_replace_attack(spec.workers),
                                        collusion_attack()};
    {
      // The "adaptive" attacker attenuates its model-replacement so each
      // frame stays within 50% relative L2 of the honest update.
      auto adaptive = model_replace_attack(spec.workers);
      adaptive.name = "adaptive";
      adaptive.adapt = 0.5;
      attacks.push_back(std::move(adaptive));
    }
    for (const auto& key : adaptive_keys) {
      // Clean reference: also probes the model norm the clip defense uses
      // (clip every delivered frame to the clean run's final parameter L2 —
      // honest uploads pass, a boosted substitution shrinks to honest size).
      auto clean_spec = spec;
      clean_spec.set("reputation-decay", "0.5");
      saps::scenario::Runner clean_runner(clean_spec, workload);
      const auto clean_rec =
          clean_runner.run(key, first_run ? &sinks : nullptr);
      first_run = false;
      const std::string display = clean_rec.name;
      adaptive_names.push_back(display);
      const auto& clean_fin = clean_rec.result.final();
      rows.push_back({display, "none", "none", clean_fin.accuracy,
                      clean_fin.loss, clean_rec.traffic_mb});
      const double clip = l2_norm(clean_rec.final_params);

      std::vector<std::string> defenses{"none", "clip", "trimmed"};
      if (key == "saps") defenses.push_back("reputation");
      for (const auto& attack : attacks) {
        for (const auto& defense : defenses) {
          auto s = spec;
          s.set("reputation-decay", "0.5");  // observe-only unless selected on
          s.set("byzantine", attack.byzantine);
          if (!attack.collude_group.empty()) {
            s.set("collude-group", attack.collude_group);
          }
          if (attack.adapt > 0.0) {
            s.set("adapt-attack", saps::scenario::format_double(attack.adapt));
          }
          if (defense == "clip") {
            s.set("clip-norm", saps::scenario::format_double(clip));
          } else if (defense == "trimmed") {
            s.set("aggregation", "trimmed");
            // A 20% attacker squad needs a deeper trim than the classic
            // grid's single-attacker default (0.2 of 8 sheds only one tail).
            if (!user_trim) s.set("trim-frac", "0.3");
          } else if (defense == "reputation") {
            s.set("saps-strategy", "reputation");
          }
          saps::scenario::Runner runner(s, workload);
          const auto rec = runner.run(key);
          const auto& fin = rec.result.final();
          Row row{display, attack.name, defense, fin.accuracy, fin.loss,
                  rec.traffic_mb};
          if (!rec.result.reputation.empty()) {
            const auto& suspects = rec.result.suspects;
            std::size_t hits = 0;
            for (const auto w : suspects) {
              if (std::find(attack.attackers.begin(), attack.attackers.end(),
                            w) != attack.attackers.end()) {
                ++hits;
              }
            }
            row.precision = suspects.empty()
                                ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(suspects.size());
            row.recall = static_cast<double>(hits) /
                         static_cast<double>(attack.attackers.size());
          }
          rows.push_back(std::move(row));
        }
      }
    }

    if (!adaptive_names.empty()) {
      std::cout << "=== Adaptive adversaries (attackers adapt, receivers "
                   "defend) ===\n";
      saps::Table table({"algorithm", "attack", "defense", "accuracy", "loss",
                         "det_precision", "det_recall"});
      for (std::size_t i = adaptive_first_row; i < rows.size(); ++i) {
        const auto& r = rows[i];
        table.add_row({r.algo, r.attack, r.agg, saps::Table::num(r.accuracy, 4),
                       saps::Table::num(r.loss, 4),
                       r.precision < 0 ? "n/a" : saps::Table::num(r.precision, 2),
                       r.recall < 0 ? "n/a" : saps::Table::num(r.recall, 2)});
      }
      std::cout << table.to_aligned() << "\n";

      std::cout << "adaptive-attack recovery (fraction of lost accuracy each "
                   "defense wins back):\n";
      for (const auto& algo : adaptive_names) {
        const Row* clean = find(algo, "none", "none");
        if (clean == nullptr) continue;
        for (const char* attack : {"model-replace", "collusion", "adaptive"}) {
          const Row* attacked = find(algo, attack, "none");
          if (attacked == nullptr) continue;
          const double lost = clean->accuracy - attacked->accuracy;
          std::cout << "  " << algo << "/" << attack
                    << ": lost=" << saps::Table::num(lost, 4);
          for (const char* defense : {"clip", "trimmed", "reputation"}) {
            const Row* defended = find(algo, attack, defense);
            if (defended == nullptr) continue;
            std::cout << "  " << defense << "=";
            if (lost > 1e-9) {
              std::cout << saps::Table::num(
                  (defended->accuracy - attacked->accuracy) / lost, 2);
            } else {
              std::cout << "n/a";
            }
          }
          std::cout << "\n";
        }
      }
    }
  }

  if (json.is_open()) {
    json << "{\"context\":{\"bench\":\"bench_robustness\"},\"benchmarks\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      json << (i ? "," : "") << "\n  {\"name\":\"BM_Robustness/" << r.algo
           << "/" << r.attack << "/" << r.agg << "\",\"run_type\":\"iteration\""
           << ",\"items_per_second\":"
           << saps::scenario::format_double(r.accuracy)
           << ",\"final_loss\":" << saps::scenario::format_double(r.loss)
           << ",\"worker_mb\":" << saps::scenario::format_double(r.worker_mb);
      if (r.precision >= 0.0) {
        json << ",\"detection_precision\":"
             << saps::scenario::format_double(r.precision)
             << ",\"detection_recall\":"
             << saps::scenario::format_double(r.recall);
      }
      json << "}";
    }
    json << "\n]}\n";
  }
  return 0;
}
