#include "scenario/runner.hpp"

#include <stdexcept>
#include <utility>

#include "compress/robust.hpp"

namespace saps::scenario {

Workload build_workload(const ScenarioSpec& spec) {
  const auto& entry = Registry::instance().workload(spec.workload);
  WorkloadContext ctx;
  ctx.workers = spec.workers;
  ctx.seed = spec.seed;
  ctx.full_scale = spec.full;
  ctx.samples_per_worker = spec.samples;
  ctx.test_samples = spec.test_samples;
  return entry.make(resolve_entry_params(entry.params, spec.params), ctx);
}

Runner::Runner(ScenarioSpec spec) : spec_(std::move(spec)) {
  finalize_spec(spec_);
  owned_workload_ = build_workload(spec_);
  workload_ = &owned_workload_;
}

Runner::Runner(ScenarioSpec spec, const Workload& workload)
    : spec_(std::move(spec)), workload_(&workload) {
  finalize_spec(spec_);
}

sim::SimConfig Runner::sim_config() const {
  sim::SimConfig cfg;
  // Population runs: the engine's logical worker count is the population;
  // the spec's `workers` becomes the shard-group count so the dataset stays
  // sized by `workers` (each population worker trains on shard w % workers).
  cfg.workers = spec_.population;
  cfg.cohort = spec_.cohort;
  cfg.sample_seed = spec_.sample_seed;
  cfg.shard_groups = spec_.workers;
  cfg.epochs = spec_.epochs;
  cfg.batch_size = spec_.batch;
  // Real-data workloads restore the paper's Table II batch when the spec
  // left the fast default in place.
  if (workload_->preferred_batch > 0 && !spec_.provided("batch")) {
    cfg.batch_size = workload_->preferred_batch;
  }
  cfg.lr = spec_.lr > 0.0 ? spec_.lr : workload_->default_lr;
  cfg.seed = spec_.seed;
  cfg.threads = spec_.threads;
  cfg.eval_every_rounds = spec_.eval_every;
  cfg.eval_batch = spec_.eval_batch;
  if (spec_.partition == "shard") {
    cfg.partition = sim::PartitionKind::kShard;
  } else if (spec_.partition == "dirichlet") {
    cfg.partition = sim::PartitionKind::kDirichlet;
  } else {
    cfg.partition = sim::PartitionKind::kIid;
  }
  cfg.shards_per_worker = spec_.shards_per_worker;
  cfg.dirichlet_alpha = spec_.dirichlet_alpha;
  cfg.link_latency_seconds = spec_.latency;
  cfg.compute_base_seconds = spec_.compute_base;
  cfg.compute_jitter_seconds = spec_.compute_jitter;
  cfg.link_latency_matrix = spec_.latency_matrix;
  cfg.faults.fault_seed = spec_.fault_seed;
  cfg.faults.drop_prob = spec_.drop_prob;
  cfg.faults.dup_prob = spec_.dup_prob;
  cfg.faults.delay_prob = spec_.delay_prob;
  cfg.faults.delay_seconds = spec_.delay_seconds;
  cfg.faults.byzantine = spec_.byzantine;
  cfg.faults.partitions = spec_.net_partition;
  cfg.faults.collude_group = spec_.collude_group;
  cfg.faults.collude_min = spec_.collude_min;
  cfg.faults.adapt_attack = spec_.adapt_attack;
  cfg.faults.clip_norm = spec_.clip_norm;
  return cfg;
}

std::optional<net::BandwidthMatrix> Runner::bandwidth() const {
  if (spec_.bandwidth == "uniform") {
    return net::random_uniform_bandwidth(spec_.workers, spec_.bandwidth_seed);
  }
  if (spec_.bandwidth == "cities") return net::fig1_city_bandwidth();
  return std::nullopt;
}

sim::Engine Runner::make_engine() const {
  return sim::Engine(sim_config(), workload_->train, workload_->test,
                     workload_->factory, bandwidth());
}

RunRecord Runner::run(const std::string& algo_key, SinkList* sinks) {
  const auto& entry = Registry::instance().algorithm(algo_key);
  if (!spec_.failures.empty() && !entry.supports_failures) {
    throw std::invalid_argument(
        "algorithm '" + algo_key +
        "' does not support a failure schedule (dropout/rejoin rounds)");
  }
  if (spec_.cohort < spec_.population && !entry.supports_cohort) {
    throw std::invalid_argument(
        "algorithm '" + algo_key +
        "' does not support per-round cohort sampling (cohort < population)");
  }
  algos::Dynamics dyn;
  dyn.merge = compress::parse_merge_rule(spec_.aggregation);
  dyn.trim_frac = spec_.trim_frac;
  dyn.reputation_decay = spec_.reputation_decay;
  if (!spec_.failures.empty()) {
    // A static run installs no hook, so it never pays a per-round callback.
    dyn.on_round = [failures = spec_.failures](std::size_t round,
                                               sim::Engine& engine) {
      for (const auto& e : failures) {
        engine.set_active(e.worker, !failure_away(e, round));
      }
    };
  }
  const auto params = resolve_entry_params(entry.params, spec_.params);
  auto algorithm = entry.make(params, std::move(dyn));

  auto engine = make_engine();
  RunMeta meta;
  if (sinks != nullptr && !sinks->empty()) {
    meta.workload = workload_->display_name;
    meta.algorithm = algorithm->name();
    meta.spec_text = to_spec_text(spec_);
    sinks->begin_run(meta);
    engine.set_metric_observer(
        [&](const sim::MetricPoint& p) { sinks->point(meta, p); });
  }

  RunRecord record;
  record.result = algorithm->run(engine);
  record.name = record.result.algorithm;
  record.traffic_mb = engine.network().mean_worker_bytes() / 1e6;
  record.comm_seconds = engine.network().total_seconds();
  record.final_params = engine.average_params();
  record.algorithm = std::move(algorithm);
  if (sinks != nullptr && !sinks->empty()) {
    // The run may have changed the display name (e.g. "SAPS-PSGD(random)")
    // only via config, which name() already reflected; end the frame.
    sinks->end_run(meta);
  }
  return record;
}

std::vector<RunRecord> Runner::run_all(SinkList* sinks) {
  std::vector<RunRecord> records;
  for (const auto& key : spec_.effective_algorithms()) {
    records.push_back(run(key, sinks));
  }
  return records;
}

}  // namespace saps::scenario
