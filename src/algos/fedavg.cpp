#include "algos/fedavg.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "compress/mask.hpp"
#include "net/wire.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"

namespace saps::algos {

FedAvg::FedAvg(FedAvgConfig config, Dynamics dynamics)
    : config_(config), dyn_(std::move(dynamics)) {
  if (config_.fraction <= 0.0 || config_.fraction > 1.0) {
    throw std::invalid_argument("FedAvg: fraction must be in (0, 1]");
  }
  if (config_.local_epochs == 0) {
    throw std::invalid_argument("FedAvg: local_epochs must be >= 1");
  }
  if (config_.upload_compression < 0.0 ||
      (config_.upload_compression > 0.0 && config_.upload_compression < 1.0)) {
    throw std::invalid_argument("FedAvg: bad upload_compression");
  }
}

sim::RunResult FedAvg::run(sim::Engine& engine) {
  const auto& cfg = engine.config();
  const std::size_t n = engine.workers();
  const std::size_t server = engine.server_node();
  const std::size_t dim = engine.param_count();
  const bool sparse_up = config_.upload_compression > 0.0;
  auto& fabric = engine.fabric();

  const auto participants_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.fraction * static_cast<double>(n)));

  sim::RunResult result;
  result.algorithm = name();

  // Server-side reputation scoring: every received upload is compared
  // against the round's global model (observer = the server's lane, n).
  // Observe-only — detection metrics never perturb the aggregate.
  reputation_.reset();
  if (dyn_.reputation_decay > 0.0) {
    core::ReputationConfig rep;
    rep.decay = dyn_.reputation_decay;
    reputation_.emplace(n, rep);
  }

  // The global model starts as the common initialization.
  std::vector<float> global(engine.params(0).begin(), engine.params(0).end());
  result.history.push_back(engine.eval_point(0, 0.0, global));

  Rng rng(derive_seed(cfg.seed, 0xfeda49));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  double epoch_progress = 0.0;
  std::size_t round = 0;
  std::vector<float> accum(dim);
  // Per-participant decoded uploads, bucketed by rank for deterministic
  // chosen-order aggregation regardless of mailbox arrival order.
  std::vector<std::vector<float>> uploads(n);
  std::vector<std::size_t> part;
  part.reserve(n);
  std::vector<std::uint8_t> got_down(n, 0);
  std::vector<std::uint8_t> got_up(n, 0);
  std::vector<std::size_t> sent;  // participants that got the download
  sent.reserve(n);
  std::vector<std::size_t> received;
  received.reserve(n);
  std::vector<const float*> inputs;
  std::vector<std::vector<float>> scratch(
      engine.chunk_count(std::max<std::size_t>(dim, 1)));
  while (epoch_progress < static_cast<double>(cfg.epochs)) {
    ++round;
    // Sample participants without replacement.  In pooled (cohort) mode the
    // engine's per-round draw IS the participant set — FedAvg's client
    // sampling and the population cohort are the same mechanism, so the
    // fraction knob defers to the spec's cohort size.
    std::span<const std::size_t> chosen;
    if (engine.cohort_mode()) {
      chosen = engine.begin_round_cohort(round);
    } else {
      for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      chosen = std::span<const std::size_t>(order.data(),
                                            participants_per_round);
    }
    // The selection draw above is NEVER filtered — a failure schedule must
    // not shift the sampling stream — but workers currently away sit the
    // round out.  The hook runs after begin_round_cohort so its set_active
    // flips survive the cohort reset (same ordering as SAPS).
    if (dyn_.on_round) dyn_.on_round(round - 1, engine);
    part.clear();
    for (const auto w : chosen) {
      if (engine.active(w)) part.push_back(w);
    }

    // Download phase: server → participants, one FullModelMsg each (encoded
    // once, fanned out).
    fabric.begin_round();
    {
      net::FullModelMsg down;
      down.rank = static_cast<std::uint32_t>(server);
      down.params = global;
      fabric.multicast(server, part, down);
    }
    fabric.end_round();
    // A dropped download sits the participant out of the round.
    const std::size_t from_server[] = {server};
    engine.parallel_for(part.size(), [&](std::size_t i) {
      const std::size_t w = part[i];
      got_down[w] = 0;
      receive_expected(fabric, w, from_server, "FedAvg download",
                       [&](std::size_t, const sim::Envelope& env) {
                         const auto down =
                             net::FullModelMsg::decode(env.payload);
                         std::copy(down.params.begin(), down.params.end(),
                                   engine.params(w).begin());
                         got_down[w] = 1;
                         return true;
                       });
    });
    sent.clear();
    for (const auto w : part) {
      if (got_down[w]) sent.push_back(w);
    }

    // Local training: E epochs (or a fixed step count) on each participant
    // that received the global model.  Participants own disjoint
    // models/samplers/optimizers, so their whole local schedules run in
    // parallel.
    const auto lr_epoch = static_cast<std::size_t>(epoch_progress);
    engine.parallel_for(sent.size(), [&](std::size_t i) {
      const std::size_t w = sent[i];
      const std::size_t local_steps =
          config_.local_steps > 0
              ? config_.local_steps
              : config_.local_epochs *
                    std::max<std::size_t>(
                        1, (engine.shard_size(w) + cfg.batch_size - 1) /
                               cfg.batch_size);
      for (std::size_t s = 0; s < local_steps; ++s) {
        engine.sgd_step(w, lr_epoch);
      }
    });

    // Upload phase: participants → server.  S-FedAvg ships the seeded-mask
    // values (MaskedModelMsg); plain FedAvg ships the full replica.
    const std::uint64_t mask_seed = derive_seed(cfg.seed, 0x5fed, round);
    std::vector<std::uint8_t> mask;
    std::vector<std::uint32_t> masked_idx;
    if (sparse_up) {
      mask = compress::bernoulli_mask(mask_seed, dim,
                                      config_.upload_compression);
      masked_idx.reserve(compress::mask_popcount(mask));
      for (std::size_t j = 0; j < dim; ++j) {
        if (mask[j]) masked_idx.push_back(static_cast<std::uint32_t>(j));
      }
    }
    fabric.begin_round();
    for (const auto w : sent) {
      fabric.compute(w);
      if (sparse_up) {
        net::MaskedModelMsg up;
        up.mask_seed = mask_seed;
        up.round = static_cast<std::uint32_t>(round);
        up.values = compress::extract_masked(engine.params(w), mask);
        fabric.send(w, server, up);
      } else {
        fabric.send(w, server, replica_msg(engine, w));
      }
    }
    fabric.end_round();

    // Server-side decode: bucket the uploads by sender so aggregation runs
    // in `part` (chosen) order whatever the arrival order was, over whoever
    // made it (a stale S-FedAvg frame, from another round's mask, is
    // refused).
    for (const auto w : sent) got_up[w] = 0;
    receive_expected(fabric, server, sent, "FedAvg upload",
                     [&](std::size_t k, const sim::Envelope& env) {
                       const std::size_t w = sent[k];
                       if (sparse_up) {
                         auto up = net::MaskedModelMsg::decode(env.payload);
                         if (up.mask_seed != mask_seed) return false;
                         uploads[w] = std::move(up.values);
                       } else {
                         uploads[w] = std::move(
                             net::FullModelMsg::decode(env.payload).params);
                       }
                       got_up[w] = 1;
                       return true;
                     });
    received.clear();
    for (const auto w : sent) {
      if (got_up[w]) received.push_back(w);
    }

    if (reputation_) {
      // Score each upload against the pre-aggregation global model, in
      // `part` (chosen) order, then fold — one serial pass per round.
      const std::vector<float> ref =
          sparse_up ? compress::extract_masked(global, mask) : global;
      for (const auto w : received) {
        reputation_->observe(n, w, uploads[w], ref);
      }
      reputation_->end_round();
    }

    // Server aggregation over the received uploads (all of them on the
    // default path).
    if (received.empty()) {
      // Nothing survived the round; the global model is unchanged.
    } else if (dyn_.robust()) {
      // Robust aggregation: per-coordinate center of the uploads instead of
      // their mean.  The sparse (S-FedAvg) variant centers the masked DELTAS
      // and applies the same inverse-probability scaling as the mean path,
      // keeping the update unbiased in expectation for honest uploads.
      if (sparse_up) {
        const float comp = static_cast<float>(config_.upload_compression);
        engine.parallel_chunks(
            masked_idx.size(),
            [&](std::size_t chunk, std::size_t begin, std::size_t end) {
              auto& vals = scratch[chunk];
              vals.resize(received.size());
              for (std::size_t k = begin; k < end; ++k) {
                for (std::size_t r = 0; r < received.size(); ++r) {
                  vals[r] = uploads[received[r]][k] - global[masked_idx[k]];
                }
                global[masked_idx[k]] +=
                    comp * compress::robust_center(
                               dyn_.merge, std::span<float>(vals),
                               dyn_.trim_frac);
              }
            });
      } else {
        inputs.clear();
        for (const auto w : received) inputs.push_back(uploads[w].data());
        engine.parallel_chunks(
            dim, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
              auto& tmp = scratch[chunk];
              tmp.resize(inputs.size());
              compress::robust_combine(
                  dyn_.merge, dyn_.trim_frac, inputs, begin, end,
                  std::span<float>(global.data() + begin, end - begin), tmp);
            });
      }
    } else if (sparse_up) {
      // Sketched updates (Konečný et al. 2016): participants upload only the
      // masked coordinates of their model DELTA; the server applies the
      // inverse-probability-scaled average, which makes the sparse update an
      // unbiased estimator of the dense one (E[c·m∘Δ] = Δ).
      // Chunked over the masked index list; each coordinate sums over
      // participants in fixed order, so the aggregate is thread-count
      // invariant.
      const float scale = static_cast<float>(config_.upload_compression) /
                          static_cast<float>(received.size());
      engine.parallel_chunks(
          masked_idx.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) accum[k] = 0.0f;
            for (const auto w : received) {
              const auto& v = uploads[w];
              for (std::size_t k = begin; k < end; ++k) {
                accum[k] += v[k] - global[masked_idx[k]];
              }
            }
            for (std::size_t k = begin; k < end; ++k) {
              global[masked_idx[k]] += scale * accum[k];
            }
          });
    } else {
      const float inv = 1.0f / static_cast<float>(received.size());
      engine.parallel_chunks(dim, [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) accum[j] = 0.0f;
        for (const auto w : received) {
          const auto& v = uploads[w];
          for (std::size_t j = begin; j < end; ++j) accum[j] += v[j];
        }
        for (std::size_t j = begin; j < end; ++j) global[j] = accum[j] * inv;
      });
    }
    for (const auto w : received) uploads[w].clear();

    epoch_progress +=
        config_.local_steps > 0
            ? static_cast<double>(config_.local_steps) /
                  static_cast<double>(engine.steps_per_epoch())
            : static_cast<double>(config_.local_epochs);
    result.history.push_back(engine.eval_point(round, epoch_progress, global));
  }
  return result;
}

}  // namespace saps::algos

namespace saps::scenario::detail {

namespace {

// The FedAvg family shares the participation/round-granularity knobs; the
// registry dedupes identical descriptors across the two entries.
const std::vector<ParamDesc>& fedavg_shared_params() {
  static const std::vector<ParamDesc> descs = {
      {.name = "fedavg-frac",
       .type = ParamType::kDouble,
       .default_value = "0.5",
       .min_value = 1e-9,
       .max_value = 1,
       .help = "FedAvg/S-FedAvg participant fraction C (paper 0.5)"},
      {.name = "fedavg-steps",
       .type = ParamType::kInt,
       .default_value = "0",
       .min_value = 0,
       .max_value = 1e9,
       .help = "FedAvg local steps per round (0 = one local epoch; fast "
               "mode derives several rounds per epoch)"}};
  return descs;
}

algos::FedAvgConfig fedavg_config(const ParamSet& p) {
  return {.fraction = p.get_double("fedavg-frac"),
          .local_epochs = 1,
          .local_steps = static_cast<std::size_t>(p.get_int("fedavg-steps"))};
}

}  // namespace

void register_fedavg(Registry& r) {
  r.add_algorithm(
      {.key = "fedavg",
       .summary = "FedAvg: server-coordinated local SGD (McMahan et al.)",
       .supports_failures = true,
       .supports_cohort = true,
       .params = fedavg_shared_params(),
       .make = [](const ParamSet& p, const AlgoBuildContext& ctx) {
         return std::make_unique<algos::FedAvg>(fedavg_config(p),
                                                make_dynamics(ctx));
       }});
  auto sfedavg_params = fedavg_shared_params();
  sfedavg_params.push_back(
      {.name = "sfedavg-c",
       .type = ParamType::kDouble,
       .default_value = "100",
       .min_value = 1,
       .max_value = 1e12,
       .help = "S-FedAvg upload compression (paper 100; fast mode shrinks "
               "to 20)"});
  r.add_algorithm(
      {.key = "sfedavg",
       .summary = "S-FedAvg: FedAvg with seeded-random-masked uploads",
       .supports_failures = true,
       .supports_cohort = true,
       .params = std::move(sfedavg_params),
       .make = [](const ParamSet& p, const AlgoBuildContext& ctx) {
         auto cfg = fedavg_config(p);
         cfg.upload_compression = p.get_double("sfedavg-c");
         return std::make_unique<algos::FedAvg>(cfg, make_dynamics(ctx));
       }});
}

}  // namespace saps::scenario::detail
