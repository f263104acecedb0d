// Reproduces the paper's evaluation (Tang et al., ICDCS 2020) in one run and
// prints its eight artifacts.  First the three that train nothing:
//
//  - Fig. 1: the measured 14-city bandwidth matrix, and the link range of a
//    synthetic matrix of the 32-worker uniform (0, 5] MB/s environment;
//  - Fig. 5: per-iteration bandwidth of the links each round selects (the
//    bottleneck a synchronous round waits on, and the mean) for SAPS-PSGD's
//    adaptive selection and RandomChoose (a random maximum matching),
//    beside the D-PSGD/DCD-PSGD ring 1→2→…→n→1, on the cities and on 32
//    uniform workers, where the ring value is averaged over 5000
//    regenerated matrices as in the paper.  Shape: SAPS ≫ RandomChoose >
//    ring;
//  - Table I: the analytic communication cost of the eight algorithms.
//
// They run at the paper's settings, held as the constants below, whatever
// the flags say, in a few hundredths of a second.  Then the seven-algorithm
// comparison (PSGD, TopK-PSGD, FedAvg, S-FedAvg, D-PSGD, DCD-PSGD,
// SAPS-PSGD) on the three Table II workloads (MNIST-CNN, CIFAR10-CNN,
// ResNet-20), in five views:
//
//  - Fig. 3: top-1 validation accuracy vs epoch;
//  - Fig. 4: accuracy vs cumulative per-worker traffic (MB);
//  - Table III: final top-1 accuracy;
//  - Fig. 6: accuracy vs cumulative communication time under random
//    (0, 5] MB/s bandwidths; FedAvg/S-FedAvg talk to a virtual server at
//    the best-connected node, as in the paper;
//  - Table IV: traffic and time to reach a target accuracy.
//
// The comparison runs twice, as one sweep suite: without bandwidths (Figs.
// 3 and 4, Table III) and over the `uniform` environment (Fig. 6, Table IV).
// The grid appends `sweep.bandwidth=none,uniform` and a workload axis over
// the paper set, each only when no flag or --spec line sets that key; with
// either set, its one value feeds every view.  --suite-threads=N runs the
// points in parallel with byte-identical output.
//
// Defaults are scaled down (8 workers, tiny models, synthetic data); --full
// is paper scale (32 workers, full-size models — slow).  Shapes to
// reproduce: SAPS-PSGD reaches any accuracy with the least traffic (Fig. 4),
// and its advantage widens once time counts (Fig. 6), because adaptive peer
// selection routes its small messages over fast links while ring-based
// baselines wait on their slowest edge.
//
// Table IV's target defaults to 90% of the best final accuracy per workload
// (the paper's fixed 96%/67%/75% targets assume the real datasets);
// --target-frac changes the fraction and --target-mnist=0.9 etc. set an
// absolute target (0, the default, keeps the fraction; a workload outside
// the paper set always uses it).  Algorithms that never reach it print
// "n/a".
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "gossip/generator.hpp"
#include "gossip/peer_selection.hpp"
#include "net/bandwidth.hpp"
#include "scenario/cli.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

namespace scenario = saps::scenario;
using saps::Table;
using saps::sim::MetricPoint;
using scenario::RunRecord;
using Points = std::span<const scenario::SuitePointResult>;

// The paper's settings for Figs. 1 and 5 and Table I, whose N is the
// MNIST-CNN's parameter count.
constexpr std::size_t kUniformWorkers = 32;  // the (0, 5] MB/s environment
constexpr std::uint64_t kFig1Seed = 7;
constexpr std::size_t kFig5Iterations = 400;
constexpr std::uint64_t kFig5Seed = 17;
constexpr std::size_t kFig5RingMatrices = 5000;
constexpr saps::core::CostInputs kTable1 = {.model_size = 6653628,
                                            .workers = 32,
                                            .rounds = 1000,
                                            .compression = 100,
                                            .topk_compression = 1000,
                                            .dcd_compression = 4,
                                            .neighbors = 2};

void print_fig1() {
  std::cout << "=== Fig. 1: measured 14-city bandwidth matrix (MB/s, "
               "min-symmetrized) ===\n\n";
  const auto bw = saps::net::fig1_city_bandwidth();
  const auto& names = saps::net::fig1_city_names();
  std::vector<std::string> header = {"city"};
  for (const auto& n : names) header.push_back(n.substr(0, 9));
  Table table(header);
  for (std::size_t i = 0; i < bw.size(); ++i) {
    std::vector<std::string> row = {names[i]};
    for (std::size_t j = 0; j < bw.size(); ++j) {
      row.push_back(i == j ? "-" : Table::num(bw.get(i, j), 2));
    }
    table.add_row(row);
  }
  std::cout << table.to_aligned() << "\n";
  std::cout << "min positive link: " << bw.min_positive()
            << " MB/s, max link: " << bw.max_value() << " MB/s\n\n";

  const auto rnd =
      saps::net::random_uniform_bandwidth(kUniformWorkers, kFig1Seed);
  std::cout << "=== Synthetic " << kUniformWorkers
            << "-worker environment (uniform (0,5] MB/s, seed " << kFig1Seed
            << ") ===\n"
            << "min link: " << rnd.min_positive()
            << " MB/s, max link: " << rnd.max_value() << " MB/s\n";
}

/// One Fig. 5 environment: the selected links of the adaptive selector and
/// of random matching each iteration, beside the ring's bottleneck.
void print_fig5_environment(const std::string& label,
                            const saps::net::BandwidthMatrix& bw,
                            double ring_reference, std::uint64_t seed) {
  saps::gossip::GossipGenerator adaptive(bw, {.t_thres = 10, .seed = seed});
  saps::gossip::RandomMatchSelector random_sel(bw.size(), seed);
  Table table({"iter", "SAPS(min)", "SAPS(mean)", "Random(min)",
               "Random(mean)", "ring(min)"});
  saps::RunningStat saps_min, saps_mean, rnd_min, rnd_mean;
  for (std::size_t t = 0; t < kFig5Iterations; ++t) {
    const auto a = saps::gossip::selected_bandwidth(adaptive.generate(t), bw);
    const auto r = saps::gossip::selected_bandwidth(random_sel.select(t), bw);
    saps_min.add(a.min);
    saps_mean.add(a.mean);
    rnd_min.add(r.min);
    rnd_mean.add(r.mean);
    if (t < 20 || t % (kFig5Iterations / 20) == 0) {
      table.add_row({Table::num(static_cast<long long>(t)),
                     Table::num(a.min, 3), Table::num(a.mean, 3),
                     Table::num(r.min, 3), Table::num(r.mean, 3),
                     Table::num(ring_reference, 3)});
    }
  }
  std::cout << "=== Fig. 5 (" << label
            << "): per-iteration selected-link bandwidth [MB/s] ===\n"
            << table.to_aligned() << "\n"
            << "means over " << kFig5Iterations << " iterations:\n"
            << "  SAPS-PSGD     min=" << saps_min.mean()
            << "  mean=" << saps_mean.mean() << "\n"
            << "  RandomChoose  min=" << rnd_min.mean()
            << "  mean=" << rnd_mean.mean() << "\n"
            << "  D-PSGD/DCD ring bottleneck=" << ring_reference << "\n\n";
}

void print_fig5() {
  const auto cities = saps::net::fig1_city_bandwidth();
  const saps::gossip::RingTopology city_ring(cities.size());
  print_fig5_environment("14-worker, Fig.1 cities", cities,
                         city_ring.bottleneck_bandwidth(cities), kFig5Seed);

  const saps::gossip::RingTopology ring(kUniformWorkers);
  saps::RunningStat ring_stat;
  for (std::size_t m = 0; m < kFig5RingMatrices; ++m) {
    const auto sample = saps::net::random_uniform_bandwidth(
        kUniformWorkers, saps::derive_seed(kFig5Seed, m));
    ring_stat.add(ring.bottleneck_bandwidth(sample));
  }
  const auto uniform =
      saps::net::random_uniform_bandwidth(kUniformWorkers, kFig5Seed);
  print_fig5_environment("32-worker, uniform (0,5] MB/s", uniform,
                         ring_stat.mean(), kFig5Seed + 1);
}

void print_table1() {
  std::cout << "=== Table I: communication cost comparison ===\n"
            << "N=" << kTable1.model_size << " params, n=" << kTable1.workers
            << " workers, T=" << kTable1.rounds << " rounds\n\n";
  Table table({"Algorithm", "Server Cost (params)", "Worker Cost (params)",
               "SP.", "C.B.", "R."});
  for (const auto& row : saps::core::communication_cost_table(kTable1)) {
    const auto server =
        row.server_cost < 0 ? "-" : Table::num(row.server_cost, 0);
    table.add_row({row.algorithm, server, Table::num(row.worker_cost, 0),
                   row.sparsification ? "yes" : "no",
                   row.bandwidth_aware ? "yes" : "no",
                   row.robust ? "yes" : "no"});
  }
  std::cout << table.to_aligned() << "\n"
            << "SP. = supports sparsification, C.B. = considers client "
               "bandwidth, R. = robust to network dynamics\n";
}

void print_fig3(Points points) {
  for (const auto& pt : points) {
    std::cout << "=== Fig. 3 (" << pt.workload_name
              << "): accuracy [%] vs epoch, " << pt.spec.workers
              << " workers ===\n";
    std::vector<std::string> header = {"epoch"};
    for (const auto& r : pt.runs) header.push_back(r.name);
    Table table(header);
    // Rows are the first algorithm's eval epochs; each cell is the
    // algorithm's latest point at that epoch (FedAvg evaluates more often).
    for (const auto& at : pt.runs.front().result.history) {
      std::vector<std::string> row = {Table::num(at.epoch, 1)};
      for (const auto& r : pt.runs) {
        const auto* p = r.result.last_at_epoch(at.epoch);
        row.push_back(p == nullptr ? "n/a" : Table::num(p->accuracy * 100, 2));
      }
      table.add_row(row);
    }
    std::cout << table.to_aligned() << "\n";
  }
}

using PointCost = double MetricPoint::*;
using RunCost = double RunRecord::*;

/// The cost axis of an accuracy-vs-cost figure.
struct CostAxis {
  const char* figure;
  const char* title;
  const char* column;
  int precision;
  PointCost point_cost;
  RunCost total_cost;
};

constexpr CostAxis kTraffic = {.figure = "Fig. 4",
                               .title = "per-worker traffic [MB]",
                               .column = "traffic_mb",
                               .precision = 4,
                               .point_cost = &MetricPoint::worker_mb,
                               .total_cost = &RunRecord::traffic_mb};
constexpr CostAxis kTime = {.figure = "Fig. 6",
                            .title = "communication time [s]",
                            .column = "comm_seconds",
                            .precision = 3,
                            .point_cost = &MetricPoint::comm_seconds,
                            .total_cost = &RunRecord::comm_seconds};

void print_cost_figure(Points points, const CostAxis& axis) {
  const std::string total_column = std::string("total_") + axis.column;
  for (const auto& pt : points) {
    std::cout << "=== " << axis.figure << " (" << pt.workload_name << "): ";
    std::cout << axis.title << " → accuracy [%] ===\n";
    Table table({"algorithm", "point", axis.column, "accuracy_pct"});
    for (const auto& r : pt.runs) {
      const auto& h = r.result.history;
      for (std::size_t i = 0; i < h.size(); ++i) {
        table.add_row({r.name, Table::num(static_cast<long long>(i)),
                       Table::num(h[i].*axis.point_cost, axis.precision),
                       Table::num(h[i].accuracy * 100.0, 2)});
      }
    }
    std::cout << table.to_csv() << "\n";

    Table summary({"algorithm", "final_accuracy_pct", total_column});
    for (const auto& r : pt.runs) {
      const auto final_pct = Table::num(r.result.final().accuracy * 100.0, 2);
      const auto total = Table::num(r.*axis.total_cost, axis.precision);
      summary.add_row({r.name, final_pct, total});
    }
    std::cout << summary.to_aligned() << "\n";
  }
}

void print_table3(Points points) {
  const auto& spec = points.front().spec;
  std::cout << "=== Table III: final top-1 validation accuracy [%] ("
            << spec.workers << " workers, " << spec.epochs
            << " epochs) ===\n\n";
  std::vector<std::string> header = {"Algorithm"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& pt : points) {
    header.push_back(pt.workload_name);
    for (std::size_t i = 0; i < pt.runs.size(); ++i) {
      if (rows.size() == i) rows.push_back({pt.runs[i].name});
      rows[i].push_back(
          Table::num(pt.runs[i].result.final().accuracy * 100.0, 2));
    }
  }
  Table table(header);
  for (auto& row : rows) table.add_row(std::move(row));
  std::cout << table.to_aligned();
}

void print_table4(Points points, const scenario::ParamSet& targets) {
  std::cout << "=== Table IV: traffic (MB) and time (s) at target accuracy, "
            << points.front().spec.workers
            << " workers, bandwidth included ===\n\n";
  for (const auto& pt : points) {
    double best = 0.0;
    for (const auto& r : pt.runs) {
      best = std::max(best, r.result.final().accuracy);
    }
    const auto key = "target-" + pt.spec.workload;
    double target = targets.has(key) ? targets.get_double(key) : 0.0;
    if (target == 0.0) target = best * targets.get_double("target-frac");
    const auto pct = Table::num(target * 100, 1);
    std::cout << pt.workload_name << " (target " << pct << "%)\n";
    Table table({"Algorithm", "Traffic [MB]", "Time [s]"});
    for (const auto& r : pt.runs) {
      const auto* p = r.result.first_reaching(target);
      if (p == nullptr) {
        table.add_row({r.name, "n/a", "n/a"});
      } else {
        table.add_row({r.name, Table::num(p->worker_mb, 4),
                       Table::num(p->comm_seconds, 3)});
      }
    }
    std::cout << table.to_aligned() << "\n";
  }
}

/// Table IV's targets: a fraction of the best final accuracy, or an
/// absolute target per paper workload (0 = the fraction).
std::vector<scenario::ParamDesc> target_params(
    const std::vector<std::string>& workloads) {
  std::vector<scenario::ParamDesc> descs = {
      {.name = "target-frac",
       .type = scenario::ParamType::kDouble,
       .default_value = "0.9",
       .min_value = 0,
       .max_value = 1,
       .help = "Table IV target accuracy as a fraction of the best final "
               "accuracy (default 0.9, in [0, 1])"}};
  for (const auto& key : workloads) {
    descs.push_back({.name = "target-" + key,
                     .type = scenario::ParamType::kDouble,
                     .default_value = "0",
                     .min_value = 0,
                     .max_value = 1,
                     .help = "absolute Table IV target for the " + key +
                             " workload, in [0, 1] (0 = use --target-frac)"});
  }
  return descs;
}

}  // namespace

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  scenario::describe_scenario_flags(flags);
  scenario::describe_suite_flags(flags);
  const auto workloads =
      scenario::Registry::instance().workload_keys(/*paper_only=*/true);
  scenario::describe_params(flags, target_params(workloads));
  saps::exit_on_help_or_unknown(flags, argv[0]);
  const auto targets = scenario::resolve_params_or_exit(
      flags, target_params(workloads));
  // Read as one scenario first: a --spec file with `sweep.` lines is
  // refused here, and provided() names the keys the grid must not sweep.
  const auto spec = scenario::scenario_from_flags_or_exit(flags);
  auto sinks = scenario::sinks_from_flags_or_exit(flags);
  auto sweep = scenario::sweep_from_flags_or_exit(flags, "");
  const bool both_bandwidths = !spec.provided("bandwidth");
  if (both_bandwidths) {
    sweep.axes.push_back({.key = "bandwidth", .values = {"none", "uniform"}});
  }
  if (!spec.provided("workload")) {
    sweep.axes.push_back({.key = "workload", .values = workloads});
  }
  // Validates every grid point, say a population under `uniform`.
  sweep = scenario::or_exit([&] {
    return scenario::parse_sweep_text(scenario::to_sweep_text(sweep));
  });
  auto options = scenario::suite_options_from_flags(flags);
  options.sinks = &sinks;
  print_fig1();
  print_fig5();
  print_table1();
  const auto points = scenario::SuiteRunner(std::move(sweep), options).run();

  // The bandwidth axis is the outer one: its `none` half, then `uniform`.
  const Points all(points);
  const Points untimed = both_bandwidths ? all.first(all.size() / 2) : all;
  const Points timed = both_bandwidths ? all.last(all.size() / 2) : all;
  print_fig3(untimed);
  print_cost_figure(untimed, kTraffic);
  print_table3(untimed);
  print_cost_figure(timed, kTime);
  print_table4(timed, targets);
  return 0;
}
