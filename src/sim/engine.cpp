#include "sim/engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "data/partition.hpp"
#include "sim/faulty_fabric.hpp"

namespace saps::sim {

const MetricPoint* RunResult::first_reaching(double accuracy) const {
  for (const auto& p : history) {
    if (p.accuracy >= accuracy) return &p;
  }
  return nullptr;
}

const MetricPoint* RunResult::last_at_epoch(double epoch) const {
  const MetricPoint* last = nullptr;
  for (const auto& p : history) {
    if (p.epoch <= epoch + 1e-9) last = &p;
  }
  return last;
}

namespace {
// Salt of the per-round cohort draw stream (see begin_round_cohort).
constexpr std::uint64_t kCohortSalt = 0xc047;

net::LinkModel make_link(const SimConfig& config,
                         const std::optional<net::BandwidthMatrix>& bandwidth) {
  if (config.link_latency_seconds < 0.0 || config.compute_base_seconds < 0.0 ||
      config.compute_jitter_seconds < 0.0) {
    throw std::invalid_argument("Engine: negative timing knob");
  }
  net::LinkOptions opts;
  opts.latency_seconds = config.link_latency_seconds;
  if (!config.link_latency_matrix.empty() &&
      config.link_latency_matrix.size() !=
          config.workers * config.workers) {
    throw std::invalid_argument(
        "Engine: link_latency_matrix must be workers*workers");
  }
  opts.latency_matrix = config.link_latency_matrix;
  opts.compute_base_seconds = config.compute_base_seconds;
  opts.compute_jitter_seconds = config.compute_jitter_seconds;
  opts.compute_seed = derive_seed(config.seed, 0xc0de);
  return bandwidth
             ? net::LinkModel(net::with_virtual_server(*bandwidth), opts)
             : net::LinkModel(config.workers + 1, opts);
}

std::unique_ptr<Fabric> make_fabric(
    const SimConfig& config,
    const std::optional<net::BandwidthMatrix>& bandwidth) {
  auto link = make_link(config, bandwidth);
  if (config.faults.enabled() || config.faults.force_wrapper) {
    return std::make_unique<FaultyFabric>(std::move(link), config.faults);
  }
  return std::make_unique<Fabric>(std::move(link));
}
}  // namespace

Engine::Engine(SimConfig config, const data::Dataset& train,
               const data::Dataset& test, const ModelFactory& factory,
               std::optional<net::BandwidthMatrix> bandwidth)
    : config_(std::move(config)),
      factory_(factory),
      train_(&train),
      test_(&test),
      fabric_(make_fabric(config_, bandwidth)) {
  if (config_.workers < 2) throw std::invalid_argument("Engine: workers < 2");
  if (fabric_->nodes() != config_.workers + 1) {
    throw std::invalid_argument("Engine: bandwidth matrix size != workers");
  }
  network().set_stat_worker_count(config_.workers);

  shard_groups_ =
      config_.shard_groups == 0 ? config_.workers : config_.shard_groups;
  if (shard_groups_ < 2 || shard_groups_ > config_.workers) {
    throw std::invalid_argument("Engine: shard_groups out of [2, workers]");
  }
  cohort_size_ = config_.cohort == 0 ? config_.workers : config_.cohort;
  if (cohort_size_ < 2 || cohort_size_ > config_.workers) {
    throw std::invalid_argument("Engine: cohort out of [2, workers]");
  }
  pooled_ = cohort_size_ < config_.workers;
  sample_seed_ = config_.sample_seed;

  // Partition the training data over the shard groups (== workers outside
  // population mode, preserving the legacy per-worker partition exactly).
  switch (config_.partition) {
    case PartitionKind::kIid:
      shards_ = data::iid_partition(train, shard_groups_, config_.seed);
      break;
    case PartitionKind::kShard:
      shards_ = data::shard_partition(train, shard_groups_,
                                      config_.shards_per_worker, config_.seed);
      break;
    case PartitionKind::kDirichlet:
      shards_ = data::dirichlet_partition(
          train, shard_groups_, config_.dirichlet_alpha, config_.seed);
      break;
  }
  for (const auto& shard : shards_) {
    if (shard.empty()) throw std::invalid_argument("Engine: empty shard group");
    const std::size_t batches =
        (shard.size() + config_.batch_size - 1) / config_.batch_size;
    steps_per_epoch_ = std::max(steps_per_epoch_, batches);
  }

  // The replica pool: cohort_size_ slots, initially owned by workers
  // 0..cohort-1 (== every worker outside cohort mode).
  samplers_.reserve(cohort_size_);
  models_.reserve(cohort_size_);
  optimizers_.reserve(cohort_size_);
  slot_of_.assign(config_.workers, kNoSlot);
  slot_worker_.assign(cohort_size_, kNoSlot);

  const nn::SgdConfig sgd_config{.lr = config_.lr,
                                 .momentum = config_.momentum};

  for (std::size_t s = 0; s < cohort_size_; ++s) {
    const std::size_t w = s;  // initial identity assignment
    samplers_.push_back(std::make_unique<data::BatchSampler>(
        train, shards_[w % shard_groups_], config_.batch_size,
        derive_seed(config_.seed, 0xda7a, w)));
    models_.push_back(std::make_unique<nn::Model>(factory()));
    optimizers_.push_back(std::make_unique<nn::Sgd>(sgd_config));
    slot_of_[w] = s;
    slot_worker_[s] = w;
    roster_.push_back(w);
  }
  active_ = roster_;

  // All replicas must start identical (‖X₀ − X̄₀1ᵀ‖² = 0, Section III-C).
  const auto ref = models_.front()->parameters();
  for (std::size_t s = 1; s < cohort_size_; ++s) {
    const auto p = models_[s]->parameters();
    if (p.size() != ref.size()) {
      throw std::invalid_argument("Engine: model factory is not deterministic");
    }
    std::copy(ref.begin(), ref.end(), p.begin());
  }
  if (pooled_) {
    // First-time arrivals start from the common initialization.
    init_params_.assign(ref.begin(), ref.end());
    const auto buffers = models_.front()->buffers();
    init_buffers_.assign(buffers.begin(), buffers.end());
    frozen_.resize(config_.workers);
  }

  if (auto* faulty = dynamic_cast<FaultyFabric*>(fabric_.get())) {
    // Adaptive-adversary hooks: the model-replacement boost targets the
    // actual aggregation fan-in (cohort size, == workers outside population
    // mode), and the collusion gate counts group members that are both
    // resident in the replica pool and active this round.  The probe is
    // only invoked from FaultyFabric::begin_round (serial), so it reads
    // engine state that round setup has already fixed.
    faulty->set_aggregation_fanin(cohort_size_);
    faulty->set_colluder_liveness_probe([this] {
      std::size_t live = 0;
      for (const auto w : config_.faults.collude_group) {
        if (w < config_.workers && active(w)) ++live;
      }
      return live;
    });
  }

  if (config_.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.threads);
  }
}

std::size_t Engine::shard_size(std::size_t w) const {
  if (w >= config_.workers) throw std::out_of_range("Engine::shard_size");
  return shards_[w % shard_groups_].size();
}

Engine::FrozenBytes Engine::frozen_bytes() const {
  FrozenBytes bytes;
  for (const auto& f : frozen_) {
    if (!f) continue;
    bytes.params += f->params.capacity() * sizeof(float);
    const std::size_t floats = f->buffers.capacity() + f->velocity.capacity();
    bytes.state += sizeof(FrozenWorker) + floats * sizeof(float);
  }
  return bytes;
}

void Engine::freeze_worker(std::size_t w, Keep keep) {
  const std::size_t s = slot_of_[w];
  auto f = std::make_unique<FrozenWorker>();
  if (keep == Keep::kAll) {
    const auto p = models_[s]->parameters();
    f->params.assign(p.begin(), p.end());
  }
  const auto b = models_[s]->buffers();
  f->buffers.assign(b.begin(), b.end());
  f->velocity = optimizers_[s]->velocity();
  f->sampler = samplers_[s]->save_state();
  frozen_[w] = std::move(f);
  slot_worker_[s] = kNoSlot;
  slot_of_[w] = kNoSlot;
}

void Engine::thaw_worker(std::size_t w, std::size_t s) {
  // Rebind the slot's sampler to the worker's shard and seed; a rejoining
  // worker resumes its exact saved batch stream, a first-time one starts it.
  auto& f = frozen_[w];
  samplers_[s] = std::make_unique<data::BatchSampler>(
      *train_, shards_[w % shard_groups_], config_.batch_size,
      derive_seed(config_.seed, 0xda7a, w),
      f ? f->sampler : data::BatchSampler::State{});
  const auto p = models_[s]->parameters();
  if (f) {
    const auto& params = f->params.empty() ? init_params_ : f->params;
    std::copy(params.begin(), params.end(), p.begin());
    models_[s]->set_buffers(f->buffers);
    optimizers_[s]->set_velocity(std::move(f->velocity));
    f.reset();  // resident state lives in the slot again
  } else {
    std::copy(init_params_.begin(), init_params_.end(), p.begin());
    models_[s]->set_buffers(init_buffers_);
    optimizers_[s]->set_velocity({});
  }
  slot_worker_[s] = w;
  slot_of_[w] = s;
}

std::span<const std::size_t> Engine::begin_round_cohort(std::size_t round,
                                                        Keep keep) {
  if (!pooled_) return roster_;

  // Floyd's algorithm: cohort_size_ distinct uniform draws from the
  // population in O(cohort) — a pure function of (sample_seed, round), so
  // the draw is identical across reruns, thread counts and call history.
  Rng rng(derive_seed(sample_seed_, kCohortSalt, round));
  std::vector<std::size_t> cohort;
  cohort.reserve(cohort_size_);
  for (std::size_t j = config_.workers - cohort_size_; j < config_.workers;
       ++j) {
    const std::size_t t = rng.next_below(j + 1);
    if (std::find(cohort.begin(), cohort.end(), t) == cohort.end()) {
      cohort.push_back(t);
    } else {
      cohort.push_back(j);
    }
  }
  std::sort(cohort.begin(), cohort.end());

  const auto selected = [&](std::size_t w) {
    return std::binary_search(cohort.begin(), cohort.end(), w);
  };
  // Freeze departures first (ascending worker order), freeing their slots...
  for (const auto w : roster_) {
    if (!selected(w)) freeze_worker(w, keep);
  }
  // ...then thaw arrivals into the free slots, lowest slot to lowest new
  // worker.  Both sweeps are serial and ordered — determinism by
  // construction.
  std::size_t next_free = 0;
  for (const auto w : cohort) {
    if (slot_of_[w] != kNoSlot) continue;  // stayed resident
    while (slot_worker_[next_free] != kNoSlot) ++next_free;
    thaw_worker(w, next_free);
  }
  roster_ = std::move(cohort);
  active_ = roster_;
  return roster_;
}

std::optional<net::BandwidthMatrix> Engine::worker_bandwidth() const {
  const auto& link = fabric_->link();
  if (!link.has_bandwidth()) return std::nullopt;
  const auto& full = link.bandwidth();
  net::BandwidthMatrix out(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    for (std::size_t j = 0; j < config_.workers; ++j) {
      if (i != j) out.set(i, j, full.get(i, j));
    }
  }
  return out;
}

Engine::Lease::Lease(Executors& executors, const ModelFactory& factory)
    : executors_(executors), exec_(nullptr) {
  std::lock_guard lock(executors_.mutex);
  if (executors_.idle.empty()) {
    executors_.all.push_back(std::make_unique<Executor>(factory()));
    executors_.idle.reserve(executors_.all.size());
    exec_ = executors_.all.back().get();
  } else {
    exec_ = executors_.idle.back();
    executors_.idle.pop_back();
  }
}

Engine::Lease::~Lease() {
  std::lock_guard lock(executors_.mutex);
  executors_.idle.push_back(exec_);
}

double Engine::train_step(Executor& exec, std::size_t s) {
  samplers_[s]->next(exec.x, exec.y);
  exec.model.zero_grad();
  return exec.model.train_batch(exec.x, exec.y);
}

double Engine::sgd_step(std::size_t w, std::size_t epoch) {
  const std::size_t s = slot(w);
  auto& state = *models_[s];
  const Lease exec(*step_executors_, factory_);
  exec->model.bind(state.parameters(), exec->grad, state.buffers());
  const double loss = train_step(*exec, s);
  optimizers_[s]->step(state.parameters(), exec->grad, epoch);
  return loss;
}

double Engine::compute_gradient(std::size_t w, std::size_t epoch) {
  (void)epoch;
  const std::size_t s = slot(w);
  auto& state = *models_[s];
  const Lease exec(*step_executors_, factory_);
  exec->model.bind(state.parameters(), state.gradients(), state.buffers());
  return train_step(*exec, s);
}

void Engine::apply_update(std::size_t w, std::span<const float> gradient,
                          std::size_t epoch) {
  const std::size_t s = slot(w);
  optimizers_[s]->step(models_[s]->parameters(), gradient, epoch);
}

void Engine::for_each_worker(const std::function<void(std::size_t)>& fn) {
  parallel_for(active_.size(), [&](std::size_t i) { fn(active_[i]); });
}

void Engine::parallel_for(std::size_t n,
                          const std::function<void(std::size_t)>& fn) const {
  if (pool_) {
    pool_->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

void Engine::parallel_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (pool_) {
    pool_->parallel_chunks(
        n, [&](std::size_t, std::size_t begin, std::size_t end) {
          fn(begin, end);
        });
    return;
  }
  if (n > 0) fn(0, n);
}

void Engine::parallel_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
    const {
  if (pool_) {
    pool_->parallel_chunks(n, fn);
    return;
  }
  if (n > 0) fn(0, 0, n);
}

std::size_t Engine::chunk_count(std::size_t n) const noexcept {
  return pool_ ? std::min(n, pool_->size()) : std::min<std::size_t>(n, 1);
}

void Engine::set_active(std::size_t w, bool active) {
  if (slot_of_.at(w) == kNoSlot) return;
  const auto it = std::lower_bound(active_.begin(), active_.end(), w);
  const bool listed = it != active_.end() && *it == w;
  if (active && !listed) active_.insert(it, w);
  if (!active && listed) active_.erase(it);
}

bool Engine::active(std::size_t w) const {
  if (w >= config_.workers) throw std::out_of_range("Engine::active");
  return std::binary_search(active_.begin(), active_.end(), w);
}

std::vector<float> Engine::average_params() const {
  std::vector<float> avg(param_count());
  average_into(avg);
  return avg;
}

void Engine::average_into(std::span<float> avg) const {
  if (active_.empty()) throw std::logic_error("Engine: no active workers");
  std::fill(avg.begin(), avg.end(), 0.0f);
  const float inv = 1.0f / static_cast<float>(active_.size());
  // Chunked over coordinates; each coordinate sums over the active list in
  // fixed worker order, so the result is identical for every thread count.
  parallel_chunks(avg.size(), [&](std::size_t begin, std::size_t end) {
    for (const auto w : active_) {
      const auto p = models_[slot_of_[w]]->parameters();
      for (std::size_t j = begin; j < end; ++j) avg[j] += p[j];
    }
    for (std::size_t j = begin; j < end; ++j) avg[j] *= inv;
  });
}

void Engine::allreduce_average() {
  const auto avg = average_params();
  for_each_worker([&](std::size_t w) {
    const auto p = models_[slot_of_[w]]->parameters();
    std::copy(avg.begin(), avg.end(), p.begin());
  });
}

void Engine::eval_batches(Executor& exec, std::size_t batch_begin,
                          std::size_t batch_end, std::vector<double>& losses,
                          std::vector<std::size_t>& corrects,
                          std::vector<std::size_t>& seens) {
  for (std::size_t b = batch_begin; b < batch_end; ++b) {
    const std::size_t start = b * config_.eval_batch;
    const std::size_t end = std::min(start + config_.eval_batch, test_->size());
    exec.idx.resize(end - start);
    std::iota(exec.idx.begin(), exec.idx.end(), start);
    test_->gather(exec.idx, exec.x, exec.y);
    const auto r = exec.model.evaluate_batch(exec.x, exec.y);
    losses[b] = r.loss;
    corrects[b] = r.correct;
    seens[b] = end - start;
  }
}

MetricPoint Engine::eval_point(std::size_t round, double epoch,
                               std::span<const float> params) {
  if (!params.empty() && params.size() != param_count()) {
    throw std::invalid_argument("Engine::eval_point: got " +
                                std::to_string(params.size()) +
                                " parameters for a model of " +
                                std::to_string(param_count()));
  }
  eval_params_.resize(param_count());
  if (params.empty()) {
    average_into(eval_params_);
  } else {
    std::copy(params.begin(), params.end(), eval_params_.begin());
  }
  const std::size_t batches =
      (test_->size() + config_.eval_batch - 1) / config_.eval_batch;
  std::vector<double> losses(batches, 0.0);
  std::vector<std::size_t> corrects(batches, 0), seens(batches, 0);

  // Evaluation runs on executors checked out like a step's, from the eval
  // free list: one serially, at most kMaxEvalClones on a pool, each
  // evaluating a contiguous batch range bound to the evaluated parameters
  // and the lowest resident worker's batch-norm running statistics (worker
  // 0 outside cohort mode), which an eval-mode pass only reads.  Partials
  // are reduced below in batch order, so the result is bit-identical for
  // every thread count.
  const std::size_t blocks =
      pool_ ? std::min({batches, pool_->size(), kMaxEvalClones})
            : std::size_t{1};
  const auto buffers = models_[slot_of_[roster_.front()]]->buffers();
  parallel_for(blocks, [&](std::size_t b) {
    const Lease exec(*eval_executors_, factory_);
    exec->model.bind(eval_params_, exec->grad, buffers);
    eval_batches(*exec, b * batches / blocks, (b + 1) * batches / blocks,
                 losses, corrects, seens);
  });

  double loss_sum = 0.0;
  std::size_t correct = 0, seen = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    loss_sum += losses[b];
    correct += corrects[b];
    seen += seens[b];
  }

  MetricPoint p;
  p.round = round;
  p.epoch = epoch;
  p.loss = loss_sum / static_cast<double>(std::max<std::size_t>(1, batches));
  p.accuracy = static_cast<double>(correct) / static_cast<double>(seen);
  p.worker_mb = fabric_->link().mean_worker_bytes() / 1e6;
  p.comm_seconds = fabric_->link().total_seconds();
  if (metric_observer_) metric_observer_(p);
  return p;
}

double Engine::consensus_distance() const {
  const auto avg = average_params();
  std::vector<double> dists(active_.size(), 0.0);
  // Per-worker distances are independent; the sum below stays in fixed
  // worker order.
  parallel_for(active_.size(), [&](std::size_t i) {
    const auto p = models_[slot_of_[active_[i]]]->parameters();
    double d = 0.0;
    for (std::size_t j = 0; j < avg.size(); ++j) {
      const double diff = static_cast<double>(p[j]) - avg[j];
      d += diff * diff;
    }
    dists[i] = d;
  });
  double total = 0.0;
  for (const double d : dists) total += d;
  return total / static_cast<double>(dists.size());
}

}  // namespace saps::sim
