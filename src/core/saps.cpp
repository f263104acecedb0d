#include "core/saps.hpp"

#include <stdexcept>

#include "compress/mask.hpp"
#include "net/wire.hpp"
#include "scenario/registry.hpp"

namespace saps::core {

SapsPsgd::SapsPsgd(SapsConfig config, algos::Dynamics dynamics)
    : config_(config), dyn_(std::move(dynamics)) {
  if (config_.compression < 1.0) {
    throw std::invalid_argument("SapsPsgd: compression < 1");
  }
  if (config_.strategy == SelectionStrategy::kAdaptiveReputation &&
      dyn_.reputation_decay <= 0.0) {
    throw std::invalid_argument(
        "SapsPsgd: saps-strategy=reputation needs reputation-decay > 0");
  }
}

sim::RunResult SapsPsgd::run(sim::Engine& engine) {
  const std::size_t n = engine.workers();
  const std::size_t dim = engine.param_count();

  CoordinatorConfig coord_cfg;
  coord_cfg.strategy = config_.strategy;
  coord_cfg.bandwidth_threshold = config_.bandwidth_threshold;
  coord_cfg.t_thres = config_.t_thres;
  coord_cfg.seed = engine.config().seed;
  Coordinator coordinator(n, engine.worker_bandwidth(), coord_cfg);

  auto& fabric = engine.fabric();
  const std::size_t coord_node = engine.server_node();

  // Attack-aware scoring: workers observe their matched peer's masked
  // update every round; with kAdaptiveReputation the resulting trust also
  // drives the coordinator's matching (suspects are excluded).
  reputation_.reset();
  if (dyn_.reputation_decay > 0.0) {
    ReputationConfig rep;
    rep.decay = dyn_.reputation_decay;
    reputation_.emplace(n, rep);
  }
  if (config_.strategy == SelectionStrategy::kAdaptiveReputation) {
    coordinator.set_trust_provider([this](std::size_t w) {
      return reputation_->suspected(w) ? 0.0 : reputation_->trust(w);
    });
  }

  std::vector<SapsWorker> workers;
  workers.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    workers.emplace_back(engine, w, config_.compression);
    if (reputation_) workers.back().set_reputation(&*reputation_);
  }

  selection_bandwidth_.clear();
  const bool pooled = engine.cohort_mode();
  const auto step = [&](const algos::Round& r) {
    // The driver has drawn the round's cohort and run the liveness hook,
    // both on the engine: mirror residency ∩ liveness into the coordinator
    // so the match never names a worker without a live replica.
    for (std::size_t w = 0; w < n; ++w) {
      coordinator.set_active(w, engine.resident(w) && engine.active(w));
    }

    // Algorithm 1 lines 4-6: the coordinator decides (W_t, t, s) and
    // broadcasts one NotifyMsg per worker over the control plane.
    const RoundPlan plan = coordinator.begin_round();
    if (engine.network().has_bandwidth()) {
      selection_bandwidth_.push_back(
          coordinator.bottleneck_bandwidth(plan.gossip));
    }
    for (std::size_t w = 0; w < n; ++w) {
      // Non-resident workers never drain their mailbox; notifying them
      // would grow it without bound over a population-scale run.
      if (pooled && !engine.resident(w)) continue;
      net::NotifyMsg note;
      note.round = static_cast<std::uint32_t>(plan.round);
      note.mask_seed = plan.mask_seed;
      note.peer = static_cast<std::uint32_t>(plan.gossip.peer(w));
      fabric.send_control(coord_node, w, note);
    }
    // Algorithm 2 line 6: active workers decode their notification (the
    // drain skips notifies queued while a worker was away).
    for (std::size_t w = 0; w < n; ++w) {
      if (coordinator.active(w)) {
        workers[w].begin_round(fabric, static_cast<std::uint32_t>(plan.round));
      }
    }

    // Algorithm 2 line 5: local SGD on every active worker.
    engine.for_each_worker(
        [&](std::size_t w) { workers[w].local_train(r.epoch); });

    // Lines 6-10: regenerate the shared mask, exchange MaskedModelMsgs with
    // the matched peer over the fabric, merge.
    const auto mask =
        compress::bernoulli_mask(plan.mask_seed, dim, config_.compression);
    const auto pairs = plan.gossip.pairs();

    fabric.begin_round();
    for (std::size_t w = 0; w < n; ++w) {
      if (coordinator.active(w)) fabric.compute(w);
    }
    // The matching is disjoint, so each pair's send/receive/merge touches
    // only its own two workers and mailboxes and parallelizes without
    // races; the traffic charges are staged per source and applied in fixed
    // order at end_round.
    engine.parallel_for(pairs.size(), [&](std::size_t k) {
      const auto [i, j] = pairs[k];
      workers[i].send_model(fabric, mask);
      workers[j].send_model(fabric, mask);
      workers[i].receive_and_merge(fabric, mask);
      workers[j].receive_and_merge(fabric, mask);
    });
    fabric.end_round();
    // Fold this round's staged anomaly observations (fixed observer order —
    // serial, after the parallel exchange).
    if (reputation_) reputation_->end_round();

    // Line 11: ROUND_END notifications back over the control plane.
    for (std::size_t w = 0; w < n; ++w) {
      if (coordinator.active(w)) {
        net::RoundEndMsg done;
        done.round = static_cast<std::uint32_t>(plan.round);
        done.rank = static_cast<std::uint32_t>(w);
        fabric.send_control(w, coord_node, done);
      }
    }
    while (auto env = fabric.recv(coord_node)) {
      const auto done = net::RoundEndMsg::decode(env->payload);
      coordinator.worker_done(done.rank);
    }
  };
  auto result = algos::run_rounds(engine, name(), dyn_.on_round, {}, step);

  // Algorithm 1 line 8 / Algorithm 2 line 12: the coordinator collects one
  // full model at the end of training (Table I's server cost of N).  The
  // collecting worker must be resident; the roster front is worker 0 in
  // legacy runs and the lowest cohort member in population runs.  Under
  // faults the frame may be dropped; the run still ends (the coordinator
  // would simply re-request).
  const std::size_t src[] = {engine.roster().front()};
  fabric.begin_round();
  fabric.send(src[0], coord_node, algos::replica_msg(engine, src[0]));
  fabric.end_round();
  algos::receive_expected(
      fabric, coord_node, src, "SapsPsgd final model collection",
      [&](std::size_t, const sim::Envelope& env) {
        return net::FullModelMsg::decode(env.payload).params.size() == dim;
      });

  control_bytes_ = coordinator.control_bytes();
  return result;
}

}  // namespace saps::core

namespace saps::scenario::detail {

void register_saps(Registry& r) {
  r.add_algorithm(
      {.key = "saps",
       .summary = "SAPS-PSGD: sparsified gossip with adaptive peer selection "
                  "(the paper's algorithm)",
       .supports_failures = true,
       .supports_cohort = true,
       .params =
           {{.name = "saps-c",
             .type = ParamType::kDouble,
             .default_value = "100",
             .min_value = 1,
             .max_value = 1e12,
             .help = "SAPS compression ratio c (paper 100)"},
            {.name = "bthres",
             .type = ParamType::kDouble,
             .default_value = "0",
             .min_value = 0,
             .max_value = 1e12,
             .help = "SAPS bandwidth threshold B_thres (0 = median auto)"},
            {.name = "tthres",
             .type = ParamType::kInt,
             .default_value = "10",
             .min_value = 1,
             .max_value = 1000000,
             .help = "SAPS repeat-selection window T_thres (default 10)"},
            {.name = "saps-strategy",
             .type = ParamType::kString,
             .default_value = "adaptive",
             .help = "SAPS peer selection: adaptive (Algorithm 3), random "
                     "(the RandomChoose baseline), or reputation "
                     "(attack-aware; needs reputation-decay > 0)",
             .choices = {"adaptive", "random", "reputation"}}},
       .make = [](const ParamSet& p, algos::Dynamics dyn) {
         core::SapsConfig cfg;
         cfg.compression = p.get_double("saps-c");
         cfg.bandwidth_threshold = p.get_double("bthres");
         cfg.t_thres = static_cast<std::size_t>(p.get_int("tthres"));
         const auto strategy = p.get_string("saps-strategy");
         cfg.strategy = strategy == "random"
                            ? core::SelectionStrategy::kRandomMatch
                        : strategy == "reputation"
                            ? core::SelectionStrategy::kAdaptiveReputation
                            : core::SelectionStrategy::kAdaptiveBandwidth;
         return std::make_unique<core::SapsPsgd>(cfg, std::move(dyn));
       }});
}

}  // namespace saps::scenario::detail
