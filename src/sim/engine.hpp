// Deterministic round-based distributed-training engine.
//
// The engine holds what every algorithm in the paper's comparison needs:
// per-worker model replicas (identical initialization, as the analysis
// assumes), per-worker data shards (index lists into the borrowed training
// set) and samplers, per-worker SGD state, the borrowed test set, and the
// message plane — a sim::Fabric routing encoded wire messages over an
// event-driven net::LinkModel for traffic/time accounting.  Algorithms
// (src/algos, src/core) drive it round by round.
//
// Substitution note (docs/ARCHITECTURE.md, "Synthetic stand-ins"): this
// replaces the paper's 32 TCP-connected machines.  All reported quantities
// are functions of round-level state, which the engine reproduces exactly;
// an optional thread pool parallelizes the independent per-worker local
// steps without changing results.
//
// A worker's replica is only its state (parameters, gradient, buffers,
// optimizer, sampler).  Its local steps, and evaluation, run on executors:
// factory models that are rebound to the state they work on, each with the
// activations and scratch of one step (or eval block) at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "net/link_model.hpp"
#include "nn/model.hpp"
#include "nn/sgd.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "util/threadpool.hpp"

namespace saps::sim {

enum class PartitionKind { kIid, kShard, kDirichlet };

struct SimConfig {
  std::size_t workers = 16;
  // Participant sampling (the FedAvg client-sampling regime).  `workers` is
  // the LOGICAL population; `cohort` (0 = workers) is how many of them own a
  // live model replica in any round.  When cohort < workers the engine runs
  // in pooled mode: each round begin_round_cohort draws a fresh cohort from
  // the population, deselected workers deterministically freeze their state
  // and re-selected ones thaw it.  What a frozen record keeps is the
  // algorithm's call (Engine::Keep): SAPS keeps parameters, buffers,
  // optimizer velocity and sampler position, since its replica is its
  // state; FedAvg and S-FedAvg keep all but the parameters, which a
  // returning client's download overwrites, so their thaw writes the common
  // initialization instead.  Model state then scales with the cohort, and
  // with the population only by what a record keeps.  The defaults
  // reproduce the legacy fully-materialized engine bit-for-bit.
  std::size_t cohort = 0;          // resident replicas (0 = workers)
  std::uint64_t sample_seed = 0;   // cohort-draw seed (pooled mode only)
  // Number of distinct data shards the training set is partitioned into
  // (0 = workers).  Population runs keep the dataset sized by the scenario's
  // worker count: logical worker w trains on shard w % shard_groups.
  std::size_t shard_groups = 0;
  std::size_t batch_size = 32;
  std::size_t epochs = 10;
  double lr = 0.05;
  double momentum = 0.0;
  std::uint64_t seed = 42;
  PartitionKind partition = PartitionKind::kIid;
  std::size_t shards_per_worker = 2;   // for kShard
  double dirichlet_alpha = 0.5;        // for kDirichlet
  std::size_t eval_batch = 256;
  std::size_t eval_every_rounds = 0;   // 0 = once per epoch
  // 0 = fully serial; >= 1 runs the per-worker hot loops (local SGD,
  // compression, gossip merges, eval blocks) on a pool of that many
  // threads, each GEMM on the thread that calls it.  Results are
  // bit-identical for every value (see docs/ARCHITECTURE.md, "Threading
  // model").
  std::size_t threads = 0;
  // Message-plane timing knobs (net::LinkOptions).  The all-zero defaults
  // reproduce the legacy zero-latency synchronous-round accounting
  // bit-for-bit; see docs/ARCHITECTURE.md, "Message plane".
  double link_latency_seconds = 0.0;    // one-way per-transfer latency
  double compute_base_seconds = 0.0;    // per-round local-compute cost
  double compute_jitter_seconds = 0.0;  // straggler jitter amplitude
  // Optional per-link one-way latency overriding the scalar: row-major
  // workers×workers seconds (the virtual server's links keep the scalar).
  // Empty = uniform scalar, bit-identical to the pre-matrix accounting.
  std::vector<double> link_latency_matrix;
  // Fault-injection model (sim/faults.hpp).  When any knob is enabled (or
  // force_wrapper is set) the engine routes the message plane through a
  // sim::FaultyFabric; the all-disabled default keeps the plain fabric.
  FaultSpec faults;
};

/// One point of a training curve — the row format behind Figs. 3, 4, 6 and
/// Tables III/IV.
struct MetricPoint {
  std::size_t round = 0;    // communication rounds completed
  double epoch = 0.0;       // local-data passes completed per worker
  double loss = 0.0;        // test loss
  double accuracy = 0.0;    // test top-1 accuracy in [0, 1]
  double worker_mb = 0.0;   // mean per-worker cumulative traffic, MB
  double comm_seconds = 0.0;// cumulative simulated communication time
};

/// Everything a run measured.  The fields after `history` stay empty unless
/// the run produced them.
struct RunResult {
  std::string algorithm;
  std::vector<MetricPoint> history;
  /// SAPS-PSGD over a bandwidth matrix: each round's bottleneck bandwidth
  /// of the matched links, MB/s (Fig. 5's series).
  std::vector<double> selected_bandwidth;
  /// Each worker's final reputation score (Dynamics::reputation_decay > 0).
  std::vector<double> reputation;
  /// The workers whose final score meets the flag threshold, ascending.
  std::vector<std::size_t> suspects;

  [[nodiscard]] const MetricPoint& final() const { return history.back(); }
  /// First point reaching `accuracy`, if any.
  [[nodiscard]] const MetricPoint* first_reaching(double accuracy) const;
  /// Last point whose epoch is at most `epoch` + 1e-9, if any.  The slack
  /// absorbs float epoch sums such as FedAvg's: three steps of 0.2 read
  /// 0.6000000000000001, and six of 1/6 read 0.9999999999999999.
  [[nodiscard]] const MetricPoint* last_at_epoch(double epoch) const;
};

/// Builds a fresh model; must produce identical weights on every call (seed
/// captured inside), so all workers start from the same x_0.  The engine
/// stores a copy and may invoke it for the ENGINE'S LIFETIME (executors are
/// built lazily by the first steps and evaluations), so capture by value — a
/// by-reference capture of a local dangles.
using ModelFactory = std::function<nn::Model()>;

/// Neither copyable nor movable: the fault fabric's colluder-liveness probe
/// reads the engine it was built for.  Build one in place, or return it as
/// a prvalue (guaranteed elision), and pass it by reference.
class Engine {
 public:
  /// Borrows `train` and `test`, which must outlive the engine (a temporary
  /// for either does not compile).  Each worker's shard is the
  /// partitioner's index list into `train`: the engine copies no sample.
  Engine(SimConfig config, const data::Dataset& train,
         const data::Dataset& test, const ModelFactory& factory,
         std::optional<net::BandwidthMatrix> bandwidth);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(SimConfig, data::Dataset&&, const data::Dataset&, const ModelFactory&,
         std::optional<net::BandwidthMatrix>) = delete;
  Engine(SimConfig, const data::Dataset&, data::Dataset&&, const ModelFactory&,
         std::optional<net::BandwidthMatrix>) = delete;
  Engine(SimConfig, data::Dataset&&, data::Dataset&&, const ModelFactory&,
         std::optional<net::BandwidthMatrix>) = delete;

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t workers() const noexcept { return config_.workers; }
  [[nodiscard]] std::size_t param_count() const noexcept {
    return slots_.front().model.param_count();
  }

  /// True when the engine samples a per-round cohort from a larger
  /// population (cohort < workers) and pools model state.
  [[nodiscard]] bool cohort_mode() const noexcept {
    return slots_.size() < config_.workers;
  }
  /// The workers currently owning a live replica, ascending.  Outside cohort
  /// mode this is every worker.
  [[nodiscard]] std::span<const std::size_t> roster() const noexcept {
    return roster_;
  }
  /// What a worker deselected by begin_round_cohort keeps until it is drawn
  /// again.  kAll suits algorithms whose replica is its state (SAPS).
  /// kAllButParams suits those that overwrite a returning worker's
  /// parameters before reading them (FedAvg's download): its thaw writes the
  /// common initialization, and no parameter vector is kept per client.
  enum class Keep { kAll, kAllButParams };

  /// Draws round `round`'s cohort (a pure function of sample_seed and the
  /// round index — identical across reruns and thread counts), freezes the
  /// `keep` state of departing workers and thaws/initializes arrivals, sets
  /// the active list to the new roster (every drawn worker starts active),
  /// and returns the roster.  Outside cohort mode this is a no-op returning
  /// the full roster.
  std::span<const std::size_t> begin_round_cohort(std::size_t round,
                                                  Keep keep = Keep::kAll);

  /// Heap bytes held by the frozen records of deselected workers (zero
  /// outside cohort mode), the saved parameters apart from the rest.
  struct FrozenBytes {
    std::size_t params = 0;  // saved parameter vectors
    std::size_t state = 0;   // buffers, velocity and sampler state
  };
  [[nodiscard]] FrozenBytes frozen_bytes() const;

  /// Worker w's state: parameters(), gradients() (written by
  /// compute_gradient only) and buffers().  The engine never runs a pass on
  /// it: steps and evaluation run on executors bound to this state.
  [[nodiscard]] nn::Model& model(std::size_t w) {
    return slots_[slot(w)].model;
  }
  /// Worker w's optimizer; its momentum velocity is part of the worker's
  /// state.
  [[nodiscard]] const nn::Sgd& optimizer(std::size_t w) const {
    return slots_[slot(w)].optimizer;
  }
  [[nodiscard]] std::span<float> params(std::size_t w) {
    return model(w).parameters();
  }
  /// The message plane: every inter-node exchange flows through here as an
  /// encoded wire message (mailbox delivery; charges go to network()).  A
  /// sim::FaultyFabric when SimConfig::faults is enabled or forced, the
  /// plain fabric otherwise.
  [[nodiscard]] Fabric& fabric() noexcept { return *fabric_; }
  /// The fabric's accounting backend (traffic/time statistics).
  [[nodiscard]] net::LinkModel& network() noexcept { return fabric_->link(); }

  /// Node index of the virtual parameter server (= workers()); used by the
  /// centralized baselines for traffic/time accounting.
  [[nodiscard]] std::size_t server_node() const noexcept {
    return config_.workers;
  }

  /// The worker-to-worker bandwidth matrix (without the virtual server), or
  /// nullopt when the engine tracks traffic only.
  [[nodiscard]] std::optional<net::BandwidthMatrix> worker_bandwidth() const;

  /// Size of worker w's local shard.
  [[nodiscard]] std::size_t shard_size(std::size_t w) const;
  /// Rounds that constitute one "epoch" (max shard batches over workers).
  [[nodiscard]] std::size_t steps_per_epoch() const noexcept {
    return steps_per_epoch_;
  }

  /// One local mini-batch SGD step on worker w; `epoch` drives the LR
  /// schedule.  Returns the training loss of the batch.  The step runs on an
  /// executor bound to w's parameters and buffers; its gradient goes to the
  /// executor's own scratch, which the update consumes at once, so
  /// model(w).gradients() is left untouched.  Calls for distinct workers
  /// may run at the same time on any threads.
  double sgd_step(std::size_t w, std::size_t epoch);

  /// Computes the mini-batch gradient into model(w).gradients() WITHOUT
  /// updating parameters (for gradient-exchange algorithms, which read it
  /// there later).  Returns loss.  Runs on an executor like sgd_step, with
  /// the same concurrency guarantee.
  double compute_gradient(std::size_t w, std::size_t epoch);

  /// Applies an SGD update with an externally supplied gradient.
  void apply_update(std::size_t w, std::span<const float> gradient,
                    std::size_t epoch);

  /// Runs fn(w) for every worker of active_list(), optionally on the thread
  /// pool.  fn must not call set_active or begin_round_cohort.
  void for_each_worker(const std::function<void(std::size_t)>& fn);

  /// Runs fn(i) for i in [0, n) on the thread pool (serially without one).
  /// Tasks must be independent — no two may write the same state; iteration
  /// order is unspecified under threads.  Algorithms use this for per-worker
  /// and per-gossip-pair work where the index set is not "all active
  /// workers" (participant subsets, matchings).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

  /// Splits [0, n) into contiguous [begin, end) blocks, at most one per pool
  /// thread (a single block serially without a pool), and runs fn(begin, end)
  /// for each.  Use for dimension-chunked reductions: each block sums its
  /// coordinates over workers in fixed worker order, so the result is
  /// bit-identical for every thread count.
  void parallel_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn) const;

  /// As above, additionally passing the block index in [0, chunk_count(n)).
  /// Use when each block needs private scratch: size the scratch to
  /// chunk_count(n) instead of n, bounding memory by the pool size.
  void parallel_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
      const;

  /// Number of blocks parallel_chunks uses for a range of size n.
  [[nodiscard]] std::size_t chunk_count(std::size_t n) const noexcept;

  /// The round's live workers: the resident workers that are active,
  /// ascending — the engine's only liveness state.  Inactive workers neither
  /// train nor communicate.  The span aliases the list, which set_active and
  /// begin_round_cohort rewrite.
  [[nodiscard]] std::span<const std::size_t> active_list() const noexcept {
    return active_;
  }
  /// Failure injection: puts resident worker w on the active list or takes
  /// it off.  A non-resident worker is ignored, since residency is the
  /// cohort draw's domain and the draw lists every worker it brings in.
  /// Throws std::out_of_range when w >= workers().
  void set_active(std::size_t w, bool active);
  /// True when w is on the active list (so false for a non-resident
  /// worker).  A binary search; throws std::out_of_range when
  /// w >= workers().
  [[nodiscard]] bool active(std::size_t w) const;

  /// Mean of all ACTIVE workers' parameter vectors.
  [[nodiscard]] std::vector<float> average_params() const;

  /// Sets every ACTIVE worker's parameters to average_params() (ideal
  /// all-reduce; accounting is the caller's job).  Inactive workers keep
  /// their replica.
  void allreduce_average();

  /// Evaluates `params` (default: average_params()) on the test set and
  /// returns a MetricPoint stamped with the engine's traffic/time counters.
  /// Throws std::invalid_argument when a non-empty `params` is not
  /// param_count() long.  Worker state is only read (parameters for the
  /// default average, the lowest resident worker's batch-norm statistics):
  /// evaluation never changes a run.
  MetricPoint eval_point(std::size_t round, double epoch,
                         std::span<const float> params = {});

  /// Installs an observer invoked with every MetricPoint eval_point
  /// produces, AS it is produced — the streaming hook scenario::Runner uses
  /// to feed metric sinks during long runs.  Pass an empty function to
  /// detach.  Observation is read-only and does not affect results.
  void set_metric_observer(std::function<void(const MetricPoint&)> observer) {
    metric_observer_ = std::move(observer);
  }

  /// Consensus distance (1/n)Σ‖x_i − x̄‖² — Theorem 1's left-hand side.
  [[nodiscard]] double consensus_distance() const;

 private:
  /// Who computes: a factory model that a step or an eval block binds to
  /// the state it works on, plus its batch scratch.  Every tensor keeps its
  /// storage, so an executor stays cache-hot and allocation-free across the
  /// workers it serves.
  struct Executor {
    explicit Executor(nn::Model built)
        : model(std::move(built)), grad(model.gradients()) {}
    nn::Model model;
    std::span<float> grad;  // the model's own gradient storage
    Tensor x;
    std::vector<std::int32_t> y;
    std::vector<std::size_t> idx;
  };

  /// A free list of executors: those built so far and the idle ones.
  /// Built lazily under the mutex (so the factory never runs concurrently),
  /// one per step (or eval block) running at a time: exactly one when
  /// serial.  `idle` keeps capacity for all of them, so a check-in never
  /// allocates.
  struct Executors {
    std::mutex mutex;
    std::vector<std::unique_ptr<Executor>> all;
    std::vector<Executor*> idle;
  };

  /// Checks an executor out of a free list for its lifetime, building one
  /// with the engine's factory when none is idle.
  class Lease {
   public:
    Lease(Executors& executors, const ModelFactory& factory);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Executor& operator*() const noexcept { return *exec_; }
    Executor* operator->() const noexcept { return exec_; }

   private:
    Executors& executors_;
    Executor* exec_;
  };

  /// One replica of the pool: the worker owning it (kNone while free) and
  /// that worker's state.  Its model never runs a pass, so it holds no
  /// activations.
  struct Slot {
    std::size_t worker;
    nn::Model model;
    nn::Sgd optimizer;
    data::BatchSampler sampler;
  };

  /// Draws the sampler's next mini-batch into the executor, which is bound
  /// to the state to train, and runs forward + backward; returns the loss.
  static double train_step(Executor& exec, data::BatchSampler& sampler);

  /// Per-batch eval partials for [batch_begin, batch_end), written into the
  /// caller-provided per-batch vectors; reduced in batch order by eval_point.
  void eval_batches(Executor& exec, std::size_t batch_begin,
                    std::size_t batch_end, std::vector<double>& losses,
                    std::vector<std::size_t>& corrects,
                    std::vector<std::size_t>& seens);

  /// Writes the mean of the active workers' parameters into `avg`.
  void average_into(std::span<float> avg) const;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Replica-pool slot owned by worker w; throws when w is not resident.
  [[nodiscard]] std::size_t slot(std::size_t w) const {
    const std::size_t s = slot_of_.at(w);
    if (s == kNone) {
      throw std::logic_error("Engine: worker " + std::to_string(w) +
                             " is not resident this round");
    }
    return s;
  }

  /// Everything a deselected worker needs to resume exactly where it left
  /// off: eval-mode model state plus optimizer and sampler state.  `params`
  /// stays empty under Keep::kAllButParams.
  struct FrozenWorker {
    std::vector<float> params;
    std::vector<float> buffers;
    std::vector<float> velocity;
    data::BatchSampler::State sampler;
  };
  void freeze_worker(std::size_t w, Keep keep);
  void thaw_worker(std::size_t w, std::size_t s);
  /// Worker w's sampler over its shard, resuming `state`.
  [[nodiscard]] data::BatchSampler make_sampler(
      std::size_t w, data::BatchSampler::State state) const;

  SimConfig config_;
  ModelFactory factory_;
  const data::Dataset* train_;
  const data::Dataset* test_;
  // One index list into *train_ per shard group (logical worker w trains
  // on shard w % shards_.size()); samplers view them.
  std::vector<std::vector<std::size_t>> shards_;
  // The replica pool: one slot per cohort member, sized once at
  // construction, so slot addresses never change.  slot_of_ maps logical
  // workers onto slots (kNone = not resident).  Outside cohort mode slot s
  // is permanently owned by worker s.
  std::vector<Slot> slots_;
  std::vector<std::size_t> roster_;   // resident workers, ascending
  std::vector<std::size_t> slot_of_;  // worker -> slot or kNone
  // Lazily allocated per-worker frozen state (pooled mode): only workers
  // that participated at least once and are currently deselected hold one.
  std::vector<std::unique_ptr<FrozenWorker>> frozen_;
  // The common initialization, for first-time cohort arrivals (and the
  // parameters of arrivals whose record kept none).
  std::vector<float> init_params_;
  std::vector<float> init_buffers_;
  std::vector<std::size_t> active_;  // resident and active, ascending
  // Owned through a pointer because the fabric is polymorphic (FaultyFabric
  // overrides post).
  std::unique_ptr<Fabric> fabric_;
  std::size_t steps_per_epoch_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  // Local steps and eval blocks check out executors from separate free
  // lists, so neither kind swings its activations between the training and
  // the eval batch size (regrowing a tensor zero-fills it).
  Executors step_executors_;
  Executors eval_executors_;
  // eval_point splits the test set into at most this many blocks, each on
  // its own executor (NOT one per pool thread), so eval memory is bounded
  // however large the pool is.
  static constexpr std::size_t kMaxEvalClones = 4;
  // The parameters eval_point evaluates, kept across eval points.
  std::vector<float> eval_params_;
  std::function<void(const MetricPoint&)> metric_observer_;
};

}  // namespace saps::sim
