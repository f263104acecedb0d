#include "algos/fedavg.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "compress/mask.hpp"
#include "core/reputation.hpp"
#include "net/wire.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"

namespace saps::algos {

FedAvg::FedAvg(FedAvgConfig config, Dynamics dynamics)
    : config_(config), dyn_(std::move(dynamics)) {
  if (config_.fraction <= 0.0 || config_.fraction > 1.0) {
    throw std::invalid_argument("FedAvg: fraction must be in (0, 1]");
  }
  if (config_.upload_compression < 0.0 ||
      (config_.upload_compression > 0.0 && config_.upload_compression < 1.0)) {
    throw std::invalid_argument("FedAvg: bad upload_compression");
  }
}

sim::RunResult FedAvg::run(sim::Engine& engine) const {
  const auto& cfg = engine.config();
  const std::size_t n = engine.workers();
  const std::size_t server = engine.server_node();
  const std::size_t dim = engine.param_count();
  const bool sparse_up = config_.upload_compression > 0.0;
  auto& fabric = engine.fabric();

  const auto participants_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.fraction * static_cast<double>(n)));

  // Server-side reputation scoring: every received upload is compared
  // against the round's global model (observer = the server's lane, n).
  // Observe-only — detection metrics never perturb the aggregate.
  std::optional<core::ReputationMonitor> reputation;
  if (dyn_.reputation_decay > 0.0) {
    core::ReputationConfig rep;
    rep.decay = dyn_.reputation_decay;
    reputation.emplace(n, rep);
  }

  // The global model starts as the common initialization.
  std::vector<float> global(engine.params(0).begin(), engine.params(0).end());

  // The draw order of the fraction sampling (outside cohort mode only).
  Rng rng(derive_seed(cfg.seed, 0xfeda49));
  std::vector<std::size_t> order;
  if (!engine.cohort_mode()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
  }

  std::vector<float> accum(dim);
  std::vector<std::size_t> part;
  std::vector<std::uint8_t> got_down;  // by position in `part`
  std::vector<std::size_t> sent;  // participants that got the download
  // Decoded uploads and their arrival flags by position in `sent`, so they
  // are sized by the round's participants, not by the population, and
  // aggregation runs in `sent` order whatever the arrival order was.
  std::vector<std::vector<float>> uploads;
  std::vector<std::uint8_t> got_up;
  std::vector<std::size_t> received;  // positions in `sent`
  std::vector<const float*> inputs;
  std::vector<std::vector<float>> scratch(
      engine.chunk_count(std::max<std::size_t>(dim, 1)));

  // A round is `local_steps` local steps per participant (one local epoch
  // when 0).  FedAvg counts rounds from 1 in its cohort key, the S-FedAvg
  // mask seed and MaskedModelMsg::round; a 0-based count would draw other
  // cohorts and masks.  A deselected client keeps no parameters: the
  // download overwrites them before they are read.
  Schedule pace;
  pace.epochs_per_round = 1.0;
  if (config_.local_steps > 0) {
    const auto steps = static_cast<double>(engine.steps_per_epoch());
    pace.epochs_per_round = static_cast<double>(config_.local_steps) / steps;
  }
  pace.eval_params = global;
  pace.cohort_key_offset = 1;
  pace.keep = sim::Engine::Keep::kAllButParams;
  const auto step = [&](const Round& r) {
    const std::size_t round = r.index + 1;
    // In pooled (cohort) mode the engine's per-round draw IS the participant
    // set — FedAvg's client sampling and the population cohort are the same
    // mechanism, so the fraction knob defers to the spec's cohort size.
    // Otherwise participants are sampled without replacement, and keep the
    // sampled order, which fixes the aggregation order.  The draw is NEVER
    // filtered — a failure schedule must not shift the sampling stream —
    // but workers currently away sit the round out.
    if (engine.cohort_mode()) {
      part.assign(r.active.begin(), r.active.end());
    } else {
      for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      part.clear();
      for (std::size_t i = 0; i < participants_per_round; ++i) {
        if (engine.active(order[i])) part.push_back(order[i]);
      }
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
    got_down.assign(part.size(), 0);
    engine.parallel_for(part.size(), [&](std::size_t i) {
      const std::size_t w = part[i];
      receive_expected(fabric, w, from_server, "FedAvg download",
                       [&](std::size_t, const sim::Envelope& env) {
                         const auto down =
                             net::FullModelMsg::decode(env.payload);
                         std::copy(down.params.begin(), down.params.end(),
                                   engine.params(w).begin());
                         got_down[i] = 1;
                         return true;
                       });
    });
    sent.clear();
    for (std::size_t i = 0; i < part.size(); ++i) {
      if (got_down[i]) sent.push_back(part[i]);
    }

    // Local training: a fixed step count (or one local epoch) on each
    // participant that received the global model.  Participants own
    // disjoint models/samplers/optimizers, so their whole local schedules
    // run in parallel.
    engine.parallel_for(sent.size(), [&](std::size_t i) {
      const std::size_t w = sent[i];
      const std::size_t batches =
          (engine.shard_size(w) + cfg.batch_size - 1) / cfg.batch_size;
      const std::size_t local_steps =
          config_.local_steps > 0 ? config_.local_steps : batches;
      for (std::size_t s = 0; s < local_steps; ++s) {
        engine.sgd_step(w, r.epoch);
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

    // Server-side decode: bucket the uploads by sender's position so
    // aggregation runs in `part` (chosen) order whatever the arrival order
    // was, over whoever made it (a stale S-FedAvg frame, from another
    // round's mask, is refused).
    uploads.resize(sent.size());
    got_up.assign(sent.size(), 0);
    receive_expected(fabric, server, sent, "FedAvg upload",
                     [&](std::size_t k, const sim::Envelope& env) {
                       if (sparse_up) {
                         auto up = net::MaskedModelMsg::decode(env.payload);
                         if (up.mask_seed != mask_seed) return false;
                         uploads[k] = std::move(up.values);
                       } else {
                         uploads[k] = std::move(
                             net::FullModelMsg::decode(env.payload).params);
                       }
                       got_up[k] = 1;
                       return true;
                     });
    received.clear();
    for (std::size_t k = 0; k < sent.size(); ++k) {
      if (got_up[k]) received.push_back(k);
    }

    if (reputation) {
      // Score each upload against the pre-aggregation global model, in
      // `part` (chosen) order, then fold — one serial pass per round.
      const std::vector<float> ref =
          sparse_up ? compress::extract_masked(global, mask) : global;
      for (const auto k : received) {
        reputation->observe(n, sent[k], uploads[k], ref);
      }
      reputation->end_round();
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
        for (const auto k : received) inputs.push_back(uploads[k].data());
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
            for (const auto r : received) {
              const auto& v = uploads[r];
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
        for (const auto k : received) {
          const auto& v = uploads[k];
          for (std::size_t j = begin; j < end; ++j) accum[j] += v[j];
        }
        for (std::size_t j = begin; j < end; ++j) global[j] = accum[j] * inv;
      });
    }
  };
  auto result = run_rounds(engine, name(), dyn_.on_round, pace, step);
  if (reputation) {
    result.reputation = reputation->scores();
    result.suspects = reputation->suspects();
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
          .local_steps = static_cast<std::size_t>(p.get_int("fedavg-steps"))};
}

}  // namespace

void register_fedavg(Registry& r) {
  r.add_algorithm(
      {.key = "fedavg",
       .summary = "FedAvg: server-coordinated local SGD (McMahan et al.)",
       .supports_cohort = true,
       .params = fedavg_shared_params(),
       .make = [](const ParamSet& p, algos::Dynamics dyn) {
         return std::make_unique<algos::FedAvg>(fedavg_config(p),
                                                std::move(dyn));
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
       .supports_cohort = true,
       .params = std::move(sfedavg_params),
       .make = [](const ParamSet& p, algos::Dynamics dyn) {
         auto cfg = fedavg_config(p);
         cfg.upload_compression = p.get_double("sfedavg-c");
         return std::make_unique<algos::FedAvg>(cfg, std::move(dyn));
       }});
}

}  // namespace saps::scenario::detail
