#include "algos/d_psgd.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "compress/topk.hpp"
#include "net/wire.hpp"
#include "scenario/registry.hpp"

namespace saps::algos {

namespace {

/// Worker act[i]'s two ring neighbors over the active set, (left, right);
/// on a 2-ring both are the same node.
std::array<std::size_t, 2> ring_neighbors(std::span<const std::size_t> act,
                                          std::size_t i) {
  const std::size_t m = act.size();
  return {act[(i + m - 1) % m], act[(i + 1) % m]};
}

}  // namespace

sim::RunResult DPsgd::run(sim::Engine& engine) {
  const std::size_t dim = engine.param_count();
  auto& fabric = engine.fabric();
  std::vector<std::vector<float>> next(engine.workers(),
                                       std::vector<float>(dim));

  return run_rounds(engine, name(), dyn_.on_round, {}, [&](const Round& r) {
    const auto act = r.active;
    const std::size_t m = act.size();
    engine.for_each_worker(
        [&](std::size_t w) { engine.sgd_step(w, r.epoch); });
    if (m < 2) return;

    // Full-model exchange with both neighbors on the ring over the ACTIVE
    // set (the full ring when nobody is away): each worker encodes its
    // replica once and ships it left and right.  Sends are staged per
    // source, so the loop parallelizes.
    fabric.begin_round();
    engine.parallel_for(m, [&](std::size_t i) {
      const std::size_t w = act[i];
      fabric.compute(w);
      fabric.multicast(w, ring_neighbors(act, i), replica_msg(engine, w));
    });
    fabric.end_round();

    // x_w ← mean(x_w, x_left, x_right) from the DELIVERED replicas (all
    // three unless a frame was dropped, which shrinks the mean to the
    // frames that made it).  Each worker drains only its own mailbox and
    // writes only its own next[w], so the merge parallelizes; the
    // write-back runs as a second pass.
    engine.parallel_for(m, [&](std::size_t i) {
      const std::size_t w = act[i];
      const auto nbrs = ring_neighbors(act, i);
      std::array<std::optional<net::FullModelMsg>, 2> nbr;  // left, right
      receive_expected(fabric, w, nbrs, name(),
                       [&](std::size_t k, const sim::Envelope& env) {
                         auto msg = net::FullModelMsg::decode(env.payload);
                         if (msg.rank != nbrs[k]) return false;
                         nbr[k] = std::move(msg);
                         return true;
                       });
      const auto& [left, right] = nbr;
      const auto self = engine.params(w);
      auto& dst = next[w];
      if (!dyn_.robust()) {
        for (std::size_t j = 0; j < dim; ++j) {
          float sum = self[j];
          int cnt = 1;
          if (left) {
            sum += left->params[j];
            ++cnt;
          }
          if (right) {
            sum += right->params[j];
            ++cnt;
          }
          dst[j] = sum / static_cast<float>(cnt);
        }
      } else {
        // Robust gossip: per-coordinate center of the available
        // contributions instead of their mean.
        std::array<float, 3> vals{};
        for (std::size_t j = 0; j < dim; ++j) {
          std::size_t k = 0;
          vals[k++] = self[j];
          if (left) vals[k++] = left->params[j];
          if (right) vals[k++] = right->params[j];
          dst[j] = compress::robust_center(
              dyn_.merge, std::span<float>(vals.data(), k), dyn_.trim_frac);
        }
      }
    });
    engine.parallel_for(m, [&](std::size_t i) {
      const auto p = engine.params(act[i]);
      std::copy(next[act[i]].begin(), next[act[i]].end(), p.begin());
    });
  });
}

sim::RunResult DcdPsgd::run(sim::Engine& engine) {
  const std::size_t n = engine.workers();
  const std::size_t dim = engine.param_count();
  auto& fabric = engine.fabric();

  // Public copies x̂: every worker holds its OWN public model plus local
  // replicas of both neighbors' public models, maintained purely from the
  // compressed deltas delivered over the fabric.  All replicas start from
  // the identical x₀, so holder copies stay in bit-exact lockstep on the
  // static, fault-free path.
  std::vector<std::vector<float>> pub(n);
  std::vector<std::array<std::vector<float>, 2>> nbr_pub(n);  // [left, right]
  for (std::size_t w = 0; w < n; ++w) {
    const auto p = engine.params(w);
    pub[w].assign(p.begin(), p.end());
  }
  for (std::size_t w = 0; w < n; ++w) {
    nbr_pub[w][0] = pub[(w + n - 1) % n];
    nbr_pub[w][1] = pub[(w + 1) % n];
  }
  std::vector<compress::SparseVector> deltas(n);
  // Compression scratch: one dim-sized buffer per parallel block (bounded by
  // the pool size), not per worker.
  std::vector<std::vector<float>> diffs(engine.chunk_count(n),
                                        std::vector<float>(dim));
  // The membership the current ring (and nbr_pub replicas) was built for;
  // any change re-seeds the neighbor replicas over the wire.
  std::vector<std::size_t> ring_set(n);
  for (std::size_t w = 0; w < n; ++w) ring_set[w] = w;

  return run_rounds(engine, name(), dyn_.on_round, {}, [&](const Round& r) {
    const auto act = r.active;
    const std::size_t m = act.size();
    engine.for_each_worker(
        [&](std::size_t w) { engine.sgd_step(w, r.epoch); });
    if (m < 2) return;

    if (!std::ranges::equal(act, ring_set)) {
      // Membership changed: the ring is rewired, so the locally held
      // neighbor replicas point at the wrong peers.  Re-seed them with one
      // extra fabric round of full public-copy exchanges (honestly charged
      // — rejoining is not free).  Never fires on a static run.
      ring_set.assign(act.begin(), act.end());
      fabric.begin_round();
      engine.parallel_for(m, [&](std::size_t i) {
        const std::size_t w = act[i];
        net::FullModelMsg msg;
        msg.rank = static_cast<std::uint32_t>(w);
        msg.params = pub[w];
        fabric.multicast(w, ring_neighbors(act, i), msg);
      });
      fabric.end_round();
      engine.parallel_for(m, [&](std::size_t i) {
        const std::size_t w = act[i];
        const auto nbrs = ring_neighbors(act, i);
        receive_expected(fabric, w, nbrs, name(),
                         [&](std::size_t k, const sim::Envelope& env) {
                           auto msg = net::FullModelMsg::decode(env.payload);
                           if (msg.rank != nbrs[k]) return false;
                           nbr_pub[w][k] = std::move(msg.params);
                           return true;
                         });
      });
    }

    // Compress x_w − x̂_w (per-block scratch, so the compression step
    // parallelizes) and ship the SparseDeltaMsg to both neighbors.
    engine.parallel_chunks(
        m, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          auto& diff = diffs[chunk];
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t w = act[i];
            const auto p = engine.params(w);
            for (std::size_t j = 0; j < dim; ++j) {
              diff[j] = p[j] - pub[w][j];
            }
            deltas[w] = compress::top_k(diff, config_.compression);
          }
        });
    fabric.begin_round();
    engine.parallel_for(m, [&](std::size_t i) {
      const std::size_t w = act[i];
      fabric.compute(w);
      net::SparseDeltaMsg msg;
      msg.round = static_cast<std::uint32_t>(r.index);
      msg.origin = static_cast<std::uint32_t>(w);
      msg.indices = deltas[w].indices;
      msg.values = deltas[w].values;
      fabric.multicast(w, ring_neighbors(act, i), msg);
    });
    fabric.end_round();

    // Every holder applies the delivered deltas: w updates its own public
    // copy from its local delta and both neighbor replicas from the
    // delivered messages (each w touches only its own state).  A dropped
    // delta leaves that neighbor replica stale — the drift a faulted fabric
    // is supposed to cause.
    engine.parallel_for(m, [&](std::size_t i) {
      const std::size_t w = act[i];
      compress::add_sparse(pub[w], deltas[w]);
      const auto nbrs = ring_neighbors(act, i);
      receive_expected(fabric, w, nbrs, name(),
                       [&](std::size_t k, const sim::Envelope& env) {
                         const auto delta =
                             net::SparseDeltaMsg::decode(env.payload);
                         if (delta.origin != nbrs[k]) return false;
                         compress::add_sparse(nbr_pub[w][k], delta.indices,
                                              delta.values);
                         return true;
                       });
    });

    // Gossip on public copies: x_w += Σ_u W_wu (x̂_u − x̂_w), ring weights
    // 1/3, using the locally maintained neighbor replicas; the robust rule
    // replaces the weighted mean with a per-coordinate center of {self,
    // left, right}.
    engine.parallel_for(m, [&](std::size_t i) {
      const std::size_t w = act[i];
      const auto p = engine.params(w);
      const auto& self = pub[w];
      const auto& left = nbr_pub[w][0];
      const auto& right = nbr_pub[w][1];
      if (!dyn_.robust()) {
        for (std::size_t j = 0; j < dim; ++j) {
          p[j] += (left[j] + right[j] - 2.0f * self[j]) / 3.0f;
        }
      } else {
        std::array<float, 3> vals{};
        for (std::size_t j = 0; j < dim; ++j) {
          vals = {self[j], left[j], right[j]};
          p[j] += compress::robust_center(dyn_.merge, std::span<float>(vals),
                                          dyn_.trim_frac) -
                  self[j];
        }
      }
    });
  });
}

}  // namespace saps::algos

namespace saps::scenario::detail {

void register_dpsgd(Registry& r) {
  r.add_algorithm(
      {.key = "dpsgd",
       .summary = "D-PSGD: full-model averaging on the fixed ring",
       .supports_failures = true,
       .make = [](const ParamSet&, algos::Dynamics dyn) {
         return std::make_unique<algos::DPsgd>(std::move(dyn));
       }});
  r.add_algorithm(
      {.key = "dcd",
       .summary = "DCD-PSGD: top-k compressed differences on the ring",
       .supports_failures = true,
       .params = {{.name = "dcd-c",
                   .type = ParamType::kDouble,
                   .default_value = "4",
                   .min_value = 1,
                   .max_value = 1e12,
                   .help = "DCD-PSGD compression ratio c (paper 4; c >= 100 "
                           "fails to converge)"}},
       .make = [](const ParamSet& p, algos::Dynamics dyn) {
         return std::make_unique<algos::DcdPsgd>(
             algos::DcdConfig{.compression = p.get_double("dcd-c")},
             std::move(dyn));
       }});
}

}  // namespace saps::scenario::detail
