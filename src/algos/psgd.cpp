#include "algos/psgd.hpp"

#include <algorithm>

#include "net/wire.hpp"
#include "scenario/registry.hpp"

namespace saps::algos {

sim::RunResult PsgdAllReduce::run(sim::Engine& engine) const {
  const std::size_t dim = engine.param_count();
  auto& fabric = engine.fabric();
  std::vector<float> merged(dim);
  std::vector<const float*> inputs;
  std::vector<std::vector<float>> scratch(engine.chunk_count(dim));

  return run_rounds(engine, name(), dyn_.on_round, {}, [&](const Round& r) {
    const auto act = r.active;
    const std::size_t m = act.size();
    engine.for_each_worker(
        [&](std::size_t w) { engine.sgd_step(w, r.epoch); });
    // A lone worker has no one to average with.
    if (m == 1) return;

    // Ring pass over the active set: each active worker ships one
    // FullModelMsg to its right active neighbor and receives one (the
    // paper's 2N-per-round accounting for all-reduce PSGD).  With everyone
    // active this is the full ring.  With nobody active the fabric round
    // stays empty but still counts, like every round, toward fault windows
    // and straggler draws.
    fabric.begin_round();
    for (std::size_t i = 0; i < m; ++i) {
      fabric.compute(act[i]);
      fabric.send(act[i], act[(i + 1) % m], replica_msg(engine, act[i]));
    }
    fabric.end_round();
    // The merge below reads the engine's replicas, so receiving only checks
    // provenance and drains the mailboxes.
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t left[] = {act[(i + m - 1) % m]};
      receive_expected(fabric, act[i], left, "PSGD",
                       [&](std::size_t, const sim::Envelope& env) {
                         return net::FullModelMsg::peek_rank(env.payload) ==
                                left[0];
                       });
    }
    if (m == 0) return;

    // The delivered replicas average to the same global mean the ideal
    // collective produces; apply it through the engine to the ACTIVE
    // workers only — dropped workers keep their stale replica and re-enter
    // the average when they rejoin.
    if (!dyn_.robust()) {
      engine.allreduce_average();
      return;
    }
    // Robust merge: per-coordinate center over the active replicas.  PSGD
    // merges from engine state rather than payloads, so byzantine payload
    // rewrites cannot reach it — the attack-free control.
    inputs.clear();
    for (const auto w : act) inputs.push_back(engine.params(w).data());
    engine.parallel_chunks(
        dim, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          auto& tmp = scratch[chunk];
          tmp.resize(inputs.size());
          compress::robust_combine(
              dyn_.merge, dyn_.trim_frac, inputs, begin, end,
              std::span<float>(merged.data() + begin, end - begin), tmp);
        });
    engine.parallel_for(m, [&](std::size_t i) {
      const auto p = engine.params(act[i]);
      std::copy(merged.begin(), merged.end(), p.begin());
    });
  });
}

}  // namespace saps::algos

namespace saps::scenario::detail {

void register_psgd(Registry& r) {
  r.add_algorithm(
      {.key = "psgd",
       .summary = "PSGD with idealized all-reduce (dense baseline)",
       .make = [](const ParamSet&, algos::Dynamics dyn) {
         return std::make_unique<algos::PsgdAllReduce>(std::move(dyn));
       }});
}

}  // namespace saps::scenario::detail
