// The ring all-gather of TopK-PSGD and QSGD-PSGD: each round every active
// worker computes its gradient, compresses it into one wire chunk, and the
// chunks travel the active ring for m − 1 hops, so every worker ends up
// holding every chunk and applies their merged update.
//
// The algorithms differ only in their codec.  A codec supplies:
//   using Msg;  // the wire chunk: round, origin, decode, peek_origin
//   void encode(std::size_t w, std::span<const float> gradient, Msg& msg);
//     // worker w's chunk payload (round and origin are set by the caller)
//   void mean(std::span<const Msg* const> chunks, std::span<float> avg);
//     // avg = the mean of the chunks, summed in the given origin order
//   void densify(const Msg& chunk, std::span<float> dense);
//     // dense = the chunk as a dense vector
// A robust merge rule takes the per-coordinate center of the densified
// chunks instead of `mean`.
#pragma once

#include <cstdint>
#include <vector>

#include "algos/algorithm.hpp"

namespace saps::algos {

template <typename Codec>
sim::RunResult run_ring_allgather(sim::Engine& engine, const char* name,
                                  const Dynamics& dyn, Codec& codec) {
  using Msg = typename Codec::Msg;
  const std::size_t n = engine.workers();
  const std::size_t dim = engine.param_count();
  auto& fabric = engine.fabric();

  // Each worker's chunk is encoded ONCE (sim::pre_encode) and the frame is
  // forwarded verbatim at every hop — no per-hop re-serialization.
  std::vector<Msg> msgs(n);
  std::vector<sim::EncodedFrame> frames(n);
  std::vector<Msg> decoded;        // received chunks, by ring position
  std::vector<const Msg*> chunks;  // the chunks one merge reads
  std::vector<float> avg(dim);
  std::vector<std::vector<float>> dense;  // robust-merge densification
  std::vector<const float*> inputs;
  std::vector<float> scratch;
  const auto merge = [&] {
    if (!dyn.robust()) {
      codec.mean(chunks, avg);
      return;
    }
    dense.resize(chunks.size());
    inputs.clear();
    for (std::size_t p = 0; p < chunks.size(); ++p) {
      dense[p].resize(dim);
      codec.densify(*chunks[p], dense[p]);
      inputs.push_back(dense[p].data());
    }
    scratch.resize(inputs.size());
    compress::robust_combine(dyn.merge, dyn.trim_frac, inputs, 0, dim, avg,
                             scratch);
  };

  return run_rounds(engine, name, dyn.on_round, {}, [&](const Round& r) {
    const auto act = r.active;
    const std::size_t m = act.size();
    engine.for_each_worker(
        [&](std::size_t w) { engine.compute_gradient(w, r.epoch); });
    // Compression is per-worker state and deterministic, so it
    // parallelizes.
    engine.parallel_for(m, [&](std::size_t i) {
      const std::size_t w = act[i];
      msgs[w].round = static_cast<std::uint32_t>(r.index);
      msgs[w].origin = static_cast<std::uint32_t>(w);
      codec.encode(w, engine.model(w).gradients(), msgs[w]);
      frames[w] = sim::pre_encode(msgs[w]);
    });
    if (m == 0) return;

    // On a transparent fabric every position ends up with the same chunks,
    // so position 0 decodes what it receives, the others only check
    // provenance, and the update is merged once.  Under faults a frame may
    // never arrive: each position relays only the frames it HOLDS (its own
    // plus those delivered; a rewritten frame travels on rewritten) and
    // merges its own subset.  The faulted relay is also bit-identical on a
    // transparent fabric, but it copies and keeps all m² frames each round
    // (about 2.8 MB at 16 workers on a 137k-parameter model): on a 4-vCPU
    // Xeon VM that cost the topk-mlp16 benchmark 13% of its samples/s and
    // 5% of its peak RSS, so the strict relay stays.
    const bool strict = fabric.transparent();
    std::vector<std::vector<std::vector<std::uint8_t>>> held;
    if (!strict) {
      held.assign(m, std::vector<std::vector<std::uint8_t>>(m));
      for (std::size_t i = 0; i < m; ++i) held[i][i] = frames[act[i]].bytes;
    }
    decoded.resize(m);
    // m − 1 sequential hops; at hop h position i forwards the chunk that
    // originated at position (i − h) mod m.  Each hop is one fabric round
    // of concurrent transfers.
    for (std::size_t hop = 0; hop + 1 < m; ++hop) {
      fabric.begin_round();
      for (std::size_t i = 0; i < m; ++i) {
        if (hop == 0) fabric.compute(act[i]);
        const std::size_t p = (i + m - hop) % m;
        const std::size_t next = act[(i + 1) % m];
        if (strict) {
          fabric.send_frame(act[i], next, frames[act[p]]);
        } else if (!held[i][p].empty()) {
          fabric.send_frame(act[i], next, {frames[act[p]].charged, held[i][p]});
        }
      }
      fabric.end_round();
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t p = (i + m - hop - 1) % m;
        const std::size_t left[] = {act[(i + m - 1) % m]};
        receive_expected(fabric, act[i], left, name,
                         [&](std::size_t, sim::Envelope& env) {
                           if (Msg::peek_origin(env.payload) != act[p]) {
                             return false;
                           }
                           if (!strict) {
                             held[i][p] = std::move(env.payload);
                           } else if (i == 0) {
                             decoded[p] = Msg::decode(env.payload);
                           }
                           return true;
                         });
      }
    }

    if (strict) {
      chunks.assign(1, &msgs[act[0]]);
      for (std::size_t p = 1; p < m; ++p) chunks.push_back(&decoded[p]);
      merge();
      engine.for_each_worker(
          [&](std::size_t w) { engine.apply_update(w, avg, r.epoch); });
      return;
    }
    // Per-holder merge (serial: the updates differ, and the reused
    // densification scratch keeps memory at one chunk set).
    for (std::size_t i = 0; i < m; ++i) {
      chunks.clear();
      for (std::size_t p = 0; p < m; ++p) {
        if (held[i][p].empty()) continue;
        decoded[p] = Msg::decode(held[i][p]);
        chunks.push_back(&decoded[p]);
      }
      merge();
      engine.apply_update(act[i], avg, r.epoch);
    }
  });
}

}  // namespace saps::algos
