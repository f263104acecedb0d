// Ablations on the gossip-matrix design choices of Section II-C:
//   (1) T_thres sweep — the connectivity window trades bandwidth quality
//       against consensus speed (smaller windows force more repair rounds);
//   (2) B_thres sweep — raising the bandwidth filter improves the selected
//       links until the filtered graph gets too sparse to match well;
//   (3) matching strategy — paper's randomized-maximum-match vs greedy
//       maximum-weight vs random vs fixed ring, on bottleneck bandwidth and
//       on the empirical ρ = λ₂(E[WᵀW]) (Assumption 3);
//   (4) pure-gossip consensus rate vs the Lemma 2 contraction factor
//       (q + pρ²) for several sparsification ratios c.
//
// Ablations 1-2 are sweep suites over REAL training runs (scenario/sweep):
// the selected-link quality is read back from each run's per-round
// bottleneck record (RunResult::selected_bandwidth), so the numbers reflect
// the matrices the training loop actually used — swap the grid with --spec.
// Ablations 3-4 stay analytic (no training; rho estimation is O(n^3)).
#include <cmath>
#include <iostream>

#include "compress/mask.hpp"
#include "gossip/generator.hpp"
#include "gossip/peer_selection.hpp"
#include "graph/matching.hpp"
#include "net/bandwidth.hpp"
#include "scenario/cli.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using saps::gossip::estimate_rho;
using saps::gossip::GossipMatrix;
using saps::gossip::selected_bandwidth;

constexpr const char* kTthresSweep =
    "workload=mnist\n"
    "algorithm=saps\n"
    "bandwidth=uniform\n"
    "sweep.tthres=1,2,5,10,20,50\n";
constexpr const char* kBthresSweep =
    "workload=mnist\n"
    "algorithm=saps\n"
    "bandwidth=uniform\n"
    "sweep.bthres=0.001,1,2,3,4\n";

const std::vector<saps::scenario::ParamDesc>& bench_params() {
  using enum saps::scenario::ParamType;
  static const std::vector<saps::scenario::ParamDesc> descs = {
      {.name = "gossip-rounds",
       .type = kInt,
       .default_value = "400",
       .min_value = 1,
       .help = "analytic-ablation gossip rounds (ablations 3-4 only; "
               "default 400, >= 1)"},
      // The scenario flag --seed, read as its key's type with the analytic
      // ablations' own default.
      {.name = "seed", .type = kUint, .default_value = "1"}};
  return descs;
}

/// Mean of the run's per-round bottleneck-bandwidth record; NaN when the
/// run was not SAPS or had no bandwidth matrix.
double mean_selected_bandwidth(const saps::scenario::RunRecord& run) {
  const auto& series = run.result.selected_bandwidth;
  if (series.empty()) return std::nan("");
  saps::RunningStat stat;
  for (const double bw : series) stat.add(bw);
  return stat.mean();
}

void print_suite(const std::vector<saps::scenario::SuitePointResult>& points) {
  saps::Table table({"point", "algorithm", "mean_bottleneck_MBps",
                     "final_accuracy_pct"});
  for (const auto& pt : points) {
    for (const auto& run : pt.runs) {
      const double mb = mean_selected_bandwidth(run);
      table.add_row({pt.label, run.name,
                     std::isnan(mb) ? "n/a" : saps::Table::num(mb, 3),
                     saps::Table::num(run.result.final().accuracy * 100, 2)});
    }
  }
  std::cout << table.to_aligned();
}

}  // namespace

int main(int argc, char** argv) {
  using saps::scenario::SuiteRunner;
  saps::Flags flags(argc, argv);
  saps::scenario::describe_scenario_flags(flags);
  saps::scenario::describe_suite_flags(flags);
  // describe_scenario_flags already lists --seed.
  saps::scenario::describe_params(flags, {bench_params().front()});
  saps::exit_on_help_or_unknown(flags, argv[0]);
  const auto p = saps::scenario::resolve_params_or_exit(flags, bench_params());
  const auto rounds = static_cast<std::size_t>(p.get_int("gossip-rounds"));
  const auto seed = p.get_uint("seed");
  auto sinks = saps::scenario::sinks_from_flags_or_exit(flags);
  auto options = saps::scenario::suite_options_from_flags(flags);
  options.sinks = &sinks;

  if (flags.has("spec")) {
    // A user grid replaces the two built-in training ablations.
    auto sweep = saps::scenario::sweep_from_flags_or_exit(flags, "");
    const auto points = SuiteRunner(std::move(sweep), options).run();
    std::cout << "=== Sweep suite (" << points.size() << " points) ===\n";
    print_suite(points);
    return 0;
  }
  // Both grids are read before the first one trains.
  auto tthres_sweep =
      saps::scenario::sweep_from_flags_or_exit(flags, kTthresSweep);
  auto bthres_sweep =
      saps::scenario::sweep_from_flags_or_exit(flags, kBthresSweep);

  // (1) T_thres sweep: train at each window, read back the bandwidth the
  // adaptive selector actually achieved.
  std::cout
      << "=== Ablation 1: T_thres (RC window) vs selected bandwidth ===\n";
  print_suite(SuiteRunner(std::move(tthres_sweep), options).run());
  std::cout << "\n";

  // (2) B_thres sweep (absolute MBps; uniform links are U(0, 5] so 0.001
  // keeps every edge and 4 keeps only the top fifth of links).
  std::cout << "=== Ablation 2: B_thres filter vs selected bandwidth ===\n";
  print_suite(SuiteRunner(std::move(bthres_sweep), options).run());
  std::cout << "\n";

  // (3) Matching strategies: bandwidth and ρ.
  std::cout << "=== Ablation 3: matching strategy vs bandwidth and rho ===\n";
  const std::size_t n_small = 16;  // rho estimation is O(n^3) per sample
  const auto bw_small = saps::net::random_uniform_bandwidth(n_small, seed);
  saps::Table t3({"strategy", "mean_bottleneck_MBps", "rho(E[WtW])"});
  {
    saps::gossip::GossipGenerator gen(bw_small, {.t_thres = 10, .seed = seed});
    saps::gossip::GossipGenerator gen2(bw_small, {.t_thres = 10, .seed = seed});
    saps::RunningStat stat;
    for (std::size_t t = 0; t < rounds; ++t) {
      stat.add(selected_bandwidth(gen.generate(t), bw_small).min);
    }
    const double rho = estimate_rho(
        [&](std::size_t t) { return gen2.generate(t); }, n_small, 300);
    t3.add_row({"adaptive (paper)", saps::Table::num(stat.mean(), 3),
                saps::Table::num(rho, 4)});
  }
  {
    saps::graph::AdjMatrix complete(n_small);
    for (std::size_t i = 0; i < n_small; ++i) {
      for (std::size_t j = i + 1; j < n_small; ++j) complete.set(i, j);
    }
    std::vector<double> weight(n_small * n_small, 0.0);
    for (std::size_t i = 0; i < n_small; ++i) {
      for (std::size_t j = 0; j < n_small; ++j) {
        if (i != j) weight[i * n_small + j] = bw_small.get(i, j);
      }
    }
    const auto m = saps::graph::greedy_weight_matching(complete, weight);
    const GossipMatrix w(m);
    const double mb = selected_bandwidth(w, bw_small).min;
    // Greedy weighted matching is deterministic → W is constant → E[WᵀW]=WᵀW
    // and ρ = 1 (a fixed matching alone never mixes across pairs).
    const double rho =
        estimate_rho([&](std::size_t) { return w; }, n_small, 4);
    t3.add_row({"greedy max-weight (fixed)", saps::Table::num(mb, 3),
                saps::Table::num(rho, 4)});
  }
  {
    saps::gossip::RandomMatchSelector sel(n_small, seed);
    saps::gossip::RandomMatchSelector sel2(n_small, seed);
    saps::RunningStat stat;
    for (std::size_t t = 0; t < rounds; ++t) {
      stat.add(selected_bandwidth(sel.select(t), bw_small).min);
    }
    const double rho = estimate_rho(
        [&](std::size_t t) { return sel2.select(t); }, n_small, 300);
    t3.add_row({"random match", saps::Table::num(stat.mean(), 3),
                saps::Table::num(rho, 4)});
  }
  {
    const saps::gossip::RingTopology ring(n_small);
    t3.add_row({"fixed ring (D-PSGD)",
                saps::Table::num(ring.bottleneck_bandwidth(bw_small), 3),
                "n/a (degree-2 topology)"});
  }
  std::cout << t3.to_aligned() << "\n";

  // (4) Consensus contraction vs the Lemma 2 factor (q + p·ρ²).
  std::cout << "=== Ablation 4: masked-gossip consensus rate vs Lemma 2 "
               "bound ===\n";
  saps::Table t4({"c", "empirical_decay_per_round", "lemma2_bound"});
  {
    saps::gossip::RandomMatchSelector rho_sel(n_small, seed);
    const double rho2 = estimate_rho(
        [&](std::size_t t) { return rho_sel.select(t); }, n_small, 300);
    for (const double c : {1.0, 2.0, 10.0, 100.0}) {
      // Pure masked gossip on scalars-per-coordinate: simulate the paper's
      // Eq. (7) without gradients on a 512-dim state.
      const std::size_t dim = 512;
      saps::Rng rng(saps::derive_seed(seed, static_cast<std::uint64_t>(c)));
      std::vector<std::vector<float>> models(n_small,
                                             std::vector<float>(dim));
      for (auto& m : models) {
        for (auto& v : m) v = static_cast<float>(rng.next_normal());
      }
      auto deviation = [&] {
        double total = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
          double mean = 0.0;
          for (const auto& m : models) mean += m[j];
          mean /= static_cast<double>(n_small);
          for (const auto& m : models) {
            total += (m[j] - mean) * (m[j] - mean);
          }
        }
        return total;
      };
      const double d0 = deviation();
      saps::gossip::RandomMatchSelector sel(n_small, seed + 9);
      const std::size_t steps = 60;
      for (std::size_t t = 0; t < steps; ++t) {
        const auto w = sel.select(t);
        const auto mask = saps::compress::bernoulli_mask(
            saps::derive_seed(seed, t, static_cast<std::uint64_t>(c)), dim, c);
        for (const auto& [i, j] : w.pairs()) {
          for (std::size_t k = 0; k < dim; ++k) {
            if (!mask[k]) continue;
            const float avg = 0.5f * (models[i][k] + models[j][k]);
            models[i][k] = avg;
            models[j][k] = avg;
          }
        }
      }
      const double dT = deviation();
      const double empirical =
          std::pow(dT / d0, 1.0 / static_cast<double>(steps));
      const double p = 1.0 / c, q = 1.0 - p;
      t4.add_row({saps::Table::num(c, 0), saps::Table::num(empirical, 5),
                  saps::Table::num(q + p * rho2, 5)});
    }
  }
  std::cout << t4.to_aligned()
            << "\n(empirical decay must be <= the bound; both approach 1 as "
               "c grows — sparser masks mix more slowly)\n";
  return 0;
}
