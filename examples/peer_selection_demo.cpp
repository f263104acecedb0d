// Peer-selection anatomy — no training, just Algorithm 3 in action on the
// 14-city bandwidth matrix: which pairs the coordinator matches each round,
// when it switches from the bandwidth-greedy phase to the connectivity-repair
// phase, and how the choices compare to random matching and the ring.
//
// Run:  ./build/examples/peer_selection_demo [--rounds=12 --tthres=5]
#include <iomanip>
#include <iostream>

#include "gossip/generator.hpp"
#include "gossip/peer_selection.hpp"
#include "net/bandwidth.hpp"
#include "scenario/params.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

namespace {

using saps::gossip::selected_bandwidth;

const std::vector<saps::scenario::ParamDesc>& demo_params() {
  using enum saps::scenario::ParamType;
  static const std::vector<saps::scenario::ParamDesc> descs = {
      {.name = "rounds",
       .type = kInt,
       .default_value = "12",
       .min_value = 1,
       .max_value = 1e9,
       .help = "gossip rounds to simulate (default 12)"},
      {.name = "tthres",
       .type = kInt,
       .default_value = "5",
       .min_value = 1,
       .max_value = 1000000,
       .help = "repeat-selection window T_thres (default 5)"},
      {.name = "seed",
       .type = kUint,
       .default_value = "3",
       .help = "RNG seed (default 3)"}};
  return descs;
}

}  // namespace

int main(int argc, char** argv) {
  saps::Flags flags(argc, argv);
  saps::scenario::describe_params(flags, demo_params());
  saps::exit_on_help_or_unknown(flags, argv[0]);
  const auto p = saps::scenario::resolve_params_or_exit(flags, demo_params());
  const auto rounds = static_cast<std::size_t>(p.get_int("rounds"));
  const auto t_thres = static_cast<std::size_t>(p.get_int("tthres"));
  const auto seed = p.get_uint("seed");

  const auto bw = saps::net::fig1_city_bandwidth();
  const auto& cities = saps::net::fig1_city_names();

  saps::gossip::GossipGenerator gen(bw, {.t_thres = t_thres, .seed = seed});
  std::cout << "Algorithm 3 on the 14-city matrix (B_thres = median = "
            << std::fixed << std::setprecision(2) << gen.bandwidth_threshold()
            << " MB/s, T_thres = " << t_thres << ")\n"
            << "filtered graph B*: " << gen.filtered_graph().edge_count()
            << " of " << 14 * 13 / 2 << " edges pass the threshold\n\n";

  for (std::size_t t = 0; t < rounds; ++t) {
    const auto w = gen.generate(t);
    std::cout << "round " << std::setw(2) << t
              << "  (bottleneck " << std::setprecision(2) << std::setw(5)
              << selected_bandwidth(w, bw).min << " MB/s): ";
    for (const auto& [i, j] : w.pairs()) {
      std::cout << cities[i] << "<->" << cities[j] << " ("
                << bw.get(i, j) << ") ";
    }
    std::cout << "\n";
  }

  // Long-run comparison against the Fig. 5 baselines.
  const std::size_t horizon = 400;
  saps::gossip::GossipGenerator gen2(bw, {.t_thres = t_thres, .seed = seed});
  saps::gossip::RandomMatchSelector rnd(14, seed);
  const saps::gossip::RingTopology ring(14);
  saps::RunningStat adaptive_stat, random_stat;
  for (std::size_t t = 0; t < horizon; ++t) {
    adaptive_stat.add(selected_bandwidth(gen2.generate(t), bw).min);
    random_stat.add(selected_bandwidth(rnd.select(t), bw).min);
  }
  std::cout << "\nmean bottleneck bandwidth over " << horizon << " rounds:\n"
            << "  SAPS adaptive: " << adaptive_stat.mean() << " MB/s\n"
            << "  random match:  " << random_stat.mean() << " MB/s\n"
            << "  fixed ring:    " << ring.bottleneck_bandwidth(bw)
            << " MB/s\n";
  return 0;
}
