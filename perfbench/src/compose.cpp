#include "compose.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "algos/algorithm.hpp"
#include "compress/mask.hpp"
#include "compress/topk.hpp"
#include "core/coordinator.hpp"
#include "core/worker.hpp"
#include "net/wire.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace saps;

// Phase spans: the direct children of the loop span, all on the driving
// thread.  run.py sums them per name; loop time under none of them is
// reported as algos.other_s.
constexpr const char* kPlan = "core.plan";
constexpr const char* kControl = "core.control";
constexpr const char* kCohort = "sim.cohort";
constexpr const char* kLocalStep = "sim.local_step";
constexpr const char* kSelect = "compress.select";
constexpr const char* kEncode = "net.encode";
constexpr const char* kExchange = "sim.exchange";
constexpr const char* kDecode = "net.decode";
constexpr const char* kMerge = "algos.merge";
constexpr const char* kEval = "sim.eval";
// Per-worker busy span inside the local-step section (any thread); its
// parent is the section's kLocalStep span.
constexpr const char* kWorkerStep = "sim.worker_step";

/// Work counts gathered beside the spans.  Only sgd_steps is touched from
/// pool threads.
struct Tally {
  std::atomic<std::uint64_t> sgd_steps{0};
  double frames_encoded = 0.0;
  double encoded_bytes = 0.0;
  double frames_sent = 0.0;
  double charged_bytes = 0.0;
  double frames_received = 0.0;
  double full_decodes = 0.0;
  double kept_sum = 0.0;  // kept fraction, summed over compress calls
  double kept_calls = 0.0;
  double matched_sum = 0.0;  // matched / active workers, summed over plans
  double bandwidth_sum = 0.0;
  double plans = 0.0;
  double freezes = 0.0;
  double thaws = 0.0;
  double fresh_thaws = 0.0;

  void encoded(const sim::EncodedFrame& frame) {
    frames_encoded += 1.0;
    encoded_bytes += static_cast<double>(frame.bytes.size());
  }
  void sent(const sim::EncodedFrame& frame, double copies = 1.0) {
    frames_sent += copies;
    charged_bytes += copies * frame.charged;
  }
};

void eval(sim::Engine& engine, TracedRun& run, std::size_t round,
          double epoch, std::span<const float> params = {}) {
  const Span span(kEval);
  run.result.history.push_back(engine.eval_point(round, epoch, params));
}

double progress(std::size_t round, std::size_t steps) {
  return static_cast<double>(round) / static_cast<double>(steps);
}

void finish(TracedRun& run, const Tally& t, std::size_t rounds) {
  auto& c = run.counters;
  c["algos.rounds"] = static_cast<double>(rounds);
  c["sim.sgd_steps"] = static_cast<double>(t.sgd_steps.load());
  c["sim.eval_points"] = static_cast<double>(run.result.history.size());
  c["net.frames_encoded"] = t.frames_encoded;
  c["net.encoded_mb"] = t.encoded_bytes / 1e6;
  c["net.frames_sent"] = t.frames_sent;
  c["net.charged_mb"] = t.charged_bytes / 1e6;
  c["net.decode_frac"] =
      t.frames_received > 0.0 ? t.full_decodes / t.frames_received : 0.0;
  c["compress.kept_frac"] =
      t.kept_calls > 0.0 ? t.kept_sum / t.kept_calls : 0.0;
  c["core.matched_frac"] = t.plans > 0.0 ? t.matched_sum / t.plans : 0.0;
  c["core.selected_bw_mbps"] =
      t.plans > 0.0 ? t.bandwidth_sum / t.plans : 0.0;
  c["sim.freezes"] = t.freezes;
  c["sim.thaws"] = t.thaws;
  c["sim.fresh_thaw_frac"] = t.thaws > 0.0 ? t.fresh_thaws / t.thaws : 0.0;
}

// --- SAPS-PSGD (core/saps.cpp) --------------------------------------------

TracedRun run_saps(sim::Engine& engine, const scenario::ScenarioSpec& spec) {
  if (engine.cohort_mode()) {
    throw std::invalid_argument("traced saps: population runs unsupported");
  }
  const auto& cfg = engine.config();
  const std::size_t n = engine.workers();
  const std::size_t steps = engine.steps_per_epoch();
  const std::size_t dim = engine.param_count();
  const algos::EvalSchedule schedule(cfg, steps);
  const double compression = spec.params.get_double("saps-c");
  const auto& strategy = spec.params.get_string("saps-strategy");
  if (strategy == "reputation" || spec.reputation_decay > 0.0) {
    throw std::invalid_argument("traced saps: reputation scoring unsupported");
  }

  core::CoordinatorConfig coord_cfg;
  coord_cfg.strategy = strategy == "random"
                           ? core::SelectionStrategy::kRandomMatch
                           : core::SelectionStrategy::kAdaptiveBandwidth;
  coord_cfg.bandwidth_threshold = spec.params.get_double("bthres");
  coord_cfg.t_thres = static_cast<std::size_t>(spec.params.get_int("tthres"));
  coord_cfg.seed = cfg.seed;
  core::Coordinator coordinator(n, engine.worker_bandwidth(), coord_cfg);
  auto& fabric = engine.fabric();
  const std::size_t coord_node = engine.server_node();
  const bool has_bandwidth = engine.network().has_bandwidth();

  std::vector<core::SapsWorker> workers;
  workers.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    workers.emplace_back(engine, w, compression);
  }

  TracedRun run;
  Tally t;
  run.result.algorithm = "SAPS-PSGD";
  eval(engine, run, 0, 0.0);

  std::vector<std::vector<float>> values(n);
  std::vector<sim::EncodedFrame> frames(n);
  std::vector<std::vector<std::uint8_t>> inbox(n);
  std::vector<net::MaskedModelMsg> peer_models(n);
  std::size_t round = 0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (std::size_t step = 0; step < steps; ++step) {
      set_round(static_cast<std::int32_t>(round));
      core::RoundPlan plan;
      {
        const Span span(kPlan);
        plan = coordinator.begin_round();
        if (has_bandwidth) {
          t.bandwidth_sum += coordinator.bottleneck_bandwidth(plan.gossip);
        }
      }
      const auto round32 = static_cast<std::uint32_t>(plan.round);
      {
        const Span span(kControl);
        for (std::size_t w = 0; w < n; ++w) {
          net::NotifyMsg note;
          note.round = round32;
          note.mask_seed = plan.mask_seed;
          note.peer = static_cast<std::uint32_t>(plan.gossip.peer(w));
          fabric.send_control(coord_node, w, note);
        }
        for (std::size_t w = 0; w < n; ++w) {
          if (coordinator.active(w)) workers[w].begin_round(fabric, round32);
        }
      }
      {
        const Span span(kLocalStep);
        const std::uint32_t parent = span.id();
        engine.for_each_worker([&](std::size_t w) {
          const Span busy(kWorkerStep, static_cast<std::int32_t>(w), parent);
          workers[w].local_train(epoch);
          t.sgd_steps.fetch_add(1, std::memory_order_relaxed);
        });
      }

      // The pairwise exchange of SapsPsgd::run, one phase at a time.  The
      // matching is disjoint, so every per-pair task touches only its own
      // two workers and mailboxes, as in the original single pass.
      const auto pairs = plan.gossip.pairs();
      const auto each_member = [&](auto&& fn) {
        engine.parallel_for(pairs.size(), [&](std::size_t k) {
          fn(pairs[k].first);
          fn(pairs[k].second);
        });
      };
      std::vector<std::uint8_t> mask;
      {
        const Span span(kSelect);
        mask = compress::bernoulli_mask(plan.mask_seed, dim, compression);
        each_member([&](std::size_t w) {
          values[w] = workers[w].sparsified_model(mask);
        });
      }
      if (!pairs.empty()) {
        t.kept_sum += static_cast<double>(values[pairs.front().first].size()) /
                      static_cast<double>(dim);
        t.kept_calls += 1.0;
      }
      {
        const Span span(kEncode);
        each_member([&](std::size_t w) {
          net::MaskedModelMsg msg;
          msg.mask_seed = workers[w].mask_seed();
          msg.round = round32;
          msg.values = std::move(values[w]);
          frames[w] = sim::pre_encode(msg);
        });
      }
      {
        const Span span(kExchange);
        fabric.begin_round();
        for (std::size_t w = 0; w < n; ++w) {
          if (coordinator.active(w)) fabric.compute(w);
        }
        engine.parallel_for(pairs.size(), [&](std::size_t k) {
          const auto [i, j] = pairs[k];
          fabric.send_frame(i, workers[i].peer(), frames[i]);
          fabric.send_frame(j, workers[j].peer(), frames[j]);
          for (const std::size_t w : {i, j}) {
            auto env = fabric.recv(w);
            if (!env) throw std::logic_error("traced saps: missing peer model");
            inbox[w] = std::move(env->payload);
          }
        });
        fabric.end_round();
      }
      {
        const Span span(kDecode);
        each_member([&](std::size_t w) {
          peer_models[w] = net::MaskedModelMsg::decode(inbox[w]);
          if (peer_models[w].mask_seed != workers[w].mask_seed() ||
              peer_models[w].round != round32) {
            throw std::logic_error("traced saps: stale peer model");
          }
        });
      }
      {
        const Span span(kMerge);
        each_member([&](std::size_t w) {
          workers[w].merge_peer(mask, peer_models[w].values);
        });
      }
      for (const auto& [i, j] : pairs) {
        for (const std::size_t w : {i, j}) {
          t.encoded(frames[w]);
          t.sent(frames[w]);
        }
      }
      t.frames_received += 2.0 * static_cast<double>(pairs.size());
      t.full_decodes += 2.0 * static_cast<double>(pairs.size());
      t.matched_sum += 2.0 * static_cast<double>(pairs.size()) /
                       static_cast<double>(coordinator.active_count());
      t.plans += 1.0;

      {
        const Span span(kControl);
        for (std::size_t w = 0; w < n; ++w) {
          if (coordinator.active(w)) {
            net::RoundEndMsg done;
            done.round = round32;
            done.rank = static_cast<std::uint32_t>(w);
            fabric.send_control(w, coord_node, done);
          }
        }
        while (auto env = fabric.recv(coord_node)) {
          coordinator.worker_done(net::RoundEndMsg::decode(env->payload).rank);
        }
      }

      ++round;
      if (schedule.due(round)) eval(engine, run, round, progress(round, steps));
    }
  }
  if (run.result.history.back().round != round) {
    eval(engine, run, round, progress(round, steps));
  }

  // The end-of-training FullModelMsg collection (Algorithm 1 line 8); it is
  // charged to traffic and simulated time like any data frame.
  const std::size_t src = engine.roster().front();
  sim::EncodedFrame final_frame;
  {
    const Span span(kEncode);
    net::FullModelMsg final_model;
    final_model.rank = static_cast<std::uint32_t>(src);
    const auto p = engine.params(src);
    final_model.params.assign(p.begin(), p.end());
    final_frame = sim::pre_encode(final_model);
  }
  t.encoded(final_frame);
  std::vector<std::vector<std::uint8_t>> collected;
  {
    const Span span(kExchange);
    fabric.begin_round();
    fabric.send_frame(src, coord_node, final_frame);
    fabric.end_round();
    while (auto env = fabric.recv(coord_node)) {
      collected.push_back(std::move(env->payload));
    }
  }
  t.sent(final_frame);
  {
    const Span span(kDecode);
    for (const auto& bytes : collected) {
      if (net::FullModelMsg::decode(bytes).params.size() != dim) {
        throw std::logic_error("traced saps: bad final model collection");
      }
    }
  }
  if (collected.empty()) {
    throw std::logic_error("traced saps: final model not delivered");
  }
  t.frames_received += static_cast<double>(collected.size());
  t.full_decodes += static_cast<double>(collected.size());

  finish(run, t, round);
  return run;
}

// --- TopK-PSGD (algos/topk_psgd.cpp) --------------------------------------

TracedRun run_topk(sim::Engine& engine, const scenario::ScenarioSpec& spec) {
  const auto& cfg = engine.config();
  const std::size_t n = engine.workers();
  const std::size_t steps = engine.steps_per_epoch();
  const std::size_t dim = engine.param_count();
  const algos::EvalSchedule schedule(cfg, steps);
  auto& fabric = engine.fabric();
  const double compression = spec.params.get_double("topk-c");

  std::vector<compress::ErrorFeedbackTopK> ef;
  ef.reserve(n);
  for (std::size_t w = 0; w < n; ++w) ef.emplace_back(dim, compression);

  TracedRun run;
  Tally t;
  run.result.algorithm = "TopK-PSGD";
  eval(engine, run, 0, 0.0);

  std::vector<net::SparseDeltaMsg> msgs(n);
  std::vector<sim::EncodedFrame> frames(n);
  std::vector<compress::SparseVector> chunks(n);
  std::vector<compress::SparseVector> gathered;
  std::vector<std::vector<std::uint8_t>> inbox(n);
  std::vector<float> avg(dim);
  std::vector<std::size_t> act;
  act.reserve(n);

  std::size_t round = 0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (std::size_t step = 0; step < steps; ++step) {
      set_round(static_cast<std::int32_t>(round));
      act.clear();
      for (std::size_t w = 0; w < n; ++w) {
        if (engine.active(w)) act.push_back(w);
      }
      const std::size_t m = act.size();

      {
        const Span span(kLocalStep);
        const std::uint32_t parent = span.id();
        engine.for_each_worker([&](std::size_t w) {
          const Span busy(kWorkerStep, static_cast<std::int32_t>(w), parent);
          engine.compute_gradient(w, epoch);
          t.sgd_steps.fetch_add(1, std::memory_order_relaxed);
        });
      }
      {
        const Span span(kSelect);
        engine.parallel_for(m, [&](std::size_t i) {
          const std::size_t w = act[i];
          ef[w].compress_into(engine.model(w).gradients(), chunks[w]);
          msgs[w].round = static_cast<std::uint32_t>(round);
          msgs[w].origin = static_cast<std::uint32_t>(w);
          msgs[w].indices.swap(chunks[w].indices);
          msgs[w].values.swap(chunks[w].values);
        });
      }
      {
        const Span span(kEncode);
        engine.parallel_for(m, [&](std::size_t i) {
          frames[act[i]] = sim::pre_encode(msgs[act[i]]);
        });
      }
      for (const auto w : act) {
        t.kept_sum += static_cast<double>(msgs[w].indices.size()) /
                      static_cast<double>(dim);
        t.kept_calls += 1.0;
        t.encoded(frames[w]);
      }
      if (m == 0) throw std::logic_error("traced topk: no active worker");

      // Ring all-gather: at hop r position i forwards the frame that
      // originated at position (i - r) mod m; position 0 decodes what it
      // receives, the others only check its origin.
      {
        const Span span(kExchange);
        gathered.assign(m, {});
        gathered[0].indices = msgs[act[0]].indices;
        gathered[0].values = msgs[act[0]].values;
      }
      for (std::size_t hop = 0; hop + 1 < m; ++hop) {
        {
          const Span span(kExchange);
          fabric.begin_round();
          for (std::size_t i = 0; i < m; ++i) {
            if (hop == 0) fabric.compute(act[i]);
            fabric.send_frame(act[i], act[(i + 1) % m],
                              frames[act[(i + m - hop) % m]]);
          }
          fabric.end_round();
          for (std::size_t i = 0; i < m; ++i) {
            auto env = fabric.recv(act[i]);
            if (!env) throw std::logic_error("traced topk: missing ring chunk");
            inbox[i] = std::move(env->payload);
          }
        }
        {
          const Span span(kDecode);
          for (std::size_t i = 0; i < m; ++i) {
            const std::size_t expect = (i + m - hop - 1) % m;
            if (i == 0) {
              auto incoming = net::SparseDeltaMsg::decode(inbox[0]);
              if (incoming.origin != act[expect]) {
                throw std::logic_error("traced topk: ring chunk out of order");
              }
              gathered[expect].indices = std::move(incoming.indices);
              gathered[expect].values = std::move(incoming.values);
            } else if (net::SparseDeltaMsg::peek_origin(inbox[i]) !=
                       act[expect]) {
              throw std::logic_error("traced topk: ring chunk out of order");
            }
          }
        }
        for (std::size_t i = 0; i < m; ++i) {
          t.sent(frames[act[(i + m - hop) % m]]);
        }
        t.frames_received += static_cast<double>(m);
        t.full_decodes += 1.0;
      }
      {
        const Span span(kMerge);
        std::fill(avg.begin(), avg.end(), 0.0f);
        for (std::size_t p = 0; p < m; ++p) {
          compress::add_sparse(avg, gathered[p], 1.0f / static_cast<float>(m));
        }
        engine.for_each_worker(
            [&](std::size_t w) { engine.apply_update(w, avg, epoch); });
      }

      ++round;
      if (schedule.due(round)) eval(engine, run, round, progress(round, steps));
    }
  }
  if (run.result.history.back().round != round) {
    eval(engine, run, round, progress(round, steps));
  }
  finish(run, t, round);
  return run;
}

// --- FedAvg over a sampled cohort (algos/fedavg.cpp) ----------------------

TracedRun run_fedavg(sim::Engine& engine, const scenario::ScenarioSpec& spec) {
  const auto local_steps =
      static_cast<std::size_t>(spec.params.get_int("fedavg-steps"));
  if (!engine.cohort_mode() || local_steps == 0) {
    throw std::invalid_argument(
        "traced fedavg: needs cohort < population and fedavg-steps > 0");
  }
  const auto& cfg = engine.config();
  const std::size_t n = engine.workers();
  const std::size_t server = engine.server_node();
  const std::size_t dim = engine.param_count();
  auto& fabric = engine.fabric();

  TracedRun run;
  Tally t;
  run.result.algorithm = "FedAvg";
  std::vector<float> global(engine.params(0).begin(), engine.params(0).end());
  eval(engine, run, 0, 0.0, global);

  // Workers ever resident (the initial roster included): a thaw of any
  // other worker starts from the common initialization.
  std::vector<std::uint8_t> seen(n, 0);
  for (const auto w : engine.roster()) seen[w] = 1;
  std::vector<std::size_t> previous;
  std::vector<std::size_t> part;
  part.reserve(n);
  std::vector<std::vector<std::uint8_t>> inbox;
  std::vector<net::FullModelMsg> downloads;
  std::vector<sim::EncodedFrame> up_frames;
  std::vector<sim::Envelope> server_inbox;
  std::vector<std::vector<float>> uploads(n);
  std::vector<std::uint8_t> got_up(n, 0);
  std::vector<std::size_t> received;
  std::vector<float> accum(dim);

  double epoch_progress = 0.0;
  std::size_t round = 0;
  while (epoch_progress < static_cast<double>(cfg.epochs)) {
    ++round;
    set_round(static_cast<std::int32_t>(round));
    previous.assign(engine.roster().begin(), engine.roster().end());
    std::span<const std::size_t> chosen;
    {
      const Span span(kCohort);
      chosen = engine.begin_round_cohort(round);
    }
    for (const auto w : previous) {
      if (!std::binary_search(chosen.begin(), chosen.end(), w)) {
        t.freezes += 1.0;
      }
    }
    for (const auto w : chosen) {
      if (std::binary_search(previous.begin(), previous.end(), w)) continue;
      t.thaws += 1.0;
      if (seen[w] == 0) t.fresh_thaws += 1.0;
      seen[w] = 1;
    }
    part.clear();
    for (const auto w : chosen) {
      if (engine.active(w)) part.push_back(w);
    }
    const std::size_t np = part.size();

    // Download: one encoded FullModelMsg fanned out to every participant.
    sim::EncodedFrame down_frame;
    {
      const Span span(kEncode);
      net::FullModelMsg down;
      down.rank = static_cast<std::uint32_t>(server);
      down.params = global;
      down_frame = sim::pre_encode(down);
    }
    t.encoded(down_frame);
    inbox.resize(np);
    downloads.resize(np);
    {
      const Span span(kExchange);
      fabric.begin_round();
      for (const auto w : part) fabric.send_frame(server, w, down_frame);
      fabric.end_round();
      engine.parallel_for(np, [&](std::size_t i) {
        auto env = fabric.recv(part[i]);
        if (!env) throw std::logic_error("traced fedavg: missing download");
        inbox[i] = std::move(env->payload);
      });
    }
    t.sent(down_frame, static_cast<double>(np));
    {
      const Span span(kDecode);
      engine.parallel_for(np, [&](std::size_t i) {
        downloads[i] = net::FullModelMsg::decode(inbox[i]);
      });
    }
    {
      const Span span(kMerge);
      engine.parallel_for(np, [&](std::size_t i) {
        const auto p = engine.params(part[i]);
        std::copy(downloads[i].params.begin(), downloads[i].params.end(),
                  p.begin());
      });
    }

    const auto lr_epoch = static_cast<std::size_t>(epoch_progress);
    {
      const Span span(kLocalStep);
      const std::uint32_t parent = span.id();
      engine.parallel_for(np, [&](std::size_t i) {
        const std::size_t w = part[i];
        const Span busy(kWorkerStep, static_cast<std::int32_t>(w), parent);
        for (std::size_t s = 0; s < local_steps; ++s) {
          engine.sgd_step(w, lr_epoch);
        }
        t.sgd_steps.fetch_add(local_steps, std::memory_order_relaxed);
      });
    }

    // Upload: every participant ships its full replica to the server.
    up_frames.resize(np);
    {
      const Span span(kEncode);
      for (std::size_t i = 0; i < np; ++i) {
        net::FullModelMsg up;
        up.rank = static_cast<std::uint32_t>(part[i]);
        const auto p = engine.params(part[i]);
        up.params.assign(p.begin(), p.end());
        up_frames[i] = sim::pre_encode(up);
      }
    }
    server_inbox.clear();
    {
      const Span span(kExchange);
      fabric.begin_round();
      for (std::size_t i = 0; i < np; ++i) {
        fabric.compute(part[i]);
        fabric.send_frame(part[i], server, up_frames[i]);
      }
      fabric.end_round();
      for (std::size_t i = 0; i < np; ++i) {
        auto env = fabric.recv(server);
        if (!env) throw std::logic_error("traced fedavg: missing upload");
        server_inbox.push_back(std::move(*env));
      }
    }
    for (const auto& frame : up_frames) {
      t.encoded(frame);
      t.sent(frame);
    }
    t.frames_received += 2.0 * static_cast<double>(np);
    t.full_decodes += 2.0 * static_cast<double>(np);
    {
      const Span span(kDecode);
      for (const auto w : part) got_up[w] = 0;
      for (const auto& env : server_inbox) {
        auto up = net::FullModelMsg::decode(env.payload);
        got_up[up.rank] = 1;
        uploads[up.rank] = std::move(up.params);
      }
    }
    received.clear();
    for (const auto w : part) {
      if (got_up[w]) received.push_back(w);
    }
    {
      const Span span(kMerge);
      if (!received.empty()) {
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
    }

    epoch_progress += static_cast<double>(local_steps) /
                      static_cast<double>(engine.steps_per_epoch());
    eval(engine, run, round, epoch_progress, global);
  }
  finish(run, t, round);
  return run;
}

}  // namespace

TracedRun run_traced(const std::string& algo_key, sim::Engine& engine,
                     const scenario::ScenarioSpec& spec) {
  if (!spec.failures.empty() || !engine.fabric().transparent() ||
      spec.aggregation != "plain") {
    throw std::invalid_argument(
        "traced runs reproduce static, fault-free, plain-merge runs only");
  }
  if (algo_key == "saps") return run_saps(engine, spec);
  if (algo_key == "topk") return run_topk(engine, spec);
  if (algo_key == "fedavg") return run_fedavg(engine, spec);
  throw std::invalid_argument("no traced composition for algorithm '" +
                              algo_key + "'");
}

}  // namespace perfbench
