// Common interface for the distributed-training algorithms of the paper's
// comparison (Section IV): PSGD, TopK-PSGD, FedAvg, S-FedAvg, D-PSGD,
// DCD-PSGD (here, in src/algos) and SAPS-PSGD (in src/core), plus the round
// driver every one of them runs on and the receive rule they share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/robust.hpp"
#include "net/wire.hpp"
#include "sim/engine.hpp"

namespace saps::algos {

/// Scenario dynamics every algorithm honors: a per-round liveness hook (the
/// Runner turns a dropout/rejoin failure schedule into engine set_active
/// flips) plus the merge rule robust aggregation swaps in for the plain
/// mean.  The default-constructed value is the static run: no hook and
/// MergeRule::kMean.
struct Dynamics {
  /// Called by run_rounds with the 0-based round index before every round,
  /// after the round's cohort draw, so its set_active flips survive it.
  std::function<void(std::size_t round, sim::Engine& engine)> on_round;
  /// SAPS-PSGD's pairwise merge has no robust form and ignores these two.
  compress::MergeRule merge = compress::MergeRule::kMean;
  double trim_frac = 0.2;
  /// Attack-aware reputation scoring: > 0 runs a core::ReputationMonitor
  /// with this per-round decay (SAPS workers score their matched peer; the
  /// FedAvg family scores uploads server-side, observe-only); 0 keeps the
  /// run monitor-free.
  double reputation_decay = 0.0;

  [[nodiscard]] bool robust() const noexcept {
    return merge != compress::MergeRule::kMean;
  }
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Runs the full training schedule (engine.config().epochs) and returns
  /// the metric history (one point per evaluation) with everything else the
  /// run measured.  An algorithm object keeps no per-run state.
  virtual sim::RunResult run(sim::Engine& engine) const = 0;
};

/// Shared evaluation cadence helper: evaluates at round 0, every
/// `eval_every_rounds` (config) or once per epoch when that is 0, and at the
/// final round.
class EvalSchedule {
 public:
  EvalSchedule(const sim::SimConfig& config, std::size_t rounds_per_epoch)
      : interval_(config.eval_every_rounds > 0 ? config.eval_every_rounds
                                               : rounds_per_epoch) {}

  [[nodiscard]] bool due(std::size_t round) const noexcept {
    return round % interval_ == 0;
  }

 private:
  std::size_t interval_;
};

/// One round, as run_rounds hands it to the step.
struct Round {
  std::size_t index;                    // 0-based round index
  std::size_t epoch;                    // drives the LR schedule
  std::span<const std::size_t> active;  // roster ∩ active, ascending
};

/// How run_rounds paces a run, draws its cohorts and what it evaluates.  The
/// default is the synchronous schedule (PSGD, D-PSGD, DCD-PSGD, TopK-PSGD,
/// QSGD-PSGD, SAPS-PSGD); FedAvg and S-FedAvg set every field.
struct Schedule {
  /// 0: epochs × steps_per_epoch rounds, round r in epoch r /
  /// steps_per_epoch, evaluated on the EvalSchedule cadence and once more
  /// after the last round if the cadence missed it.  > 0: each round adds
  /// this many epochs to an accumulated progress and the run stops when it
  /// reaches epochs; a round's epoch is the floor of the progress before
  /// it, and every round is evaluated at the progress after it.
  double epochs_per_round = 0.0;
  /// The parameters evaluated (FedAvg: the server model, which must outlive
  /// the run); empty evaluates the mean of the active workers.
  std::span<const float> eval_params;
  /// In cohort mode round r draws begin_round_cohort(r + cohort_key_offset,
  /// keep).
  std::size_t cohort_key_offset = 0;
  sim::Engine::Keep keep = sim::Engine::Keep::kAll;
};

/// The round driver of all eight algorithms.  Evaluates at round 0, then
/// runs the rounds `schedule` paces.  Each round, in order: the cohort draw
/// (cohort mode only), `on_round` (when set), the list of resident active
/// workers, `step`, and evaluation.  Returns the metric history under
/// `name`.
sim::RunResult run_rounds(
    sim::Engine& engine, const char* name,
    const std::function<void(std::size_t, sim::Engine&)>& on_round,
    const Schedule& schedule, const std::function<void(const Round&)>& step);

/// The receive rule of every exchange.  Drains `node`'s mailbox to empty.
/// Each frame fills the first open slot k whose expected sender senders[k]
/// posted it, if `keep(k, frame)` accepts it (it returns false for a frame
/// that is not valid this round: from another round, or carrying the wrong
/// origin); every other frame is dropped.  A sender listed twice fills both
/// slots, in arrival order.  On a transparent fabric exactly the expected
/// frames must arrive, each once and valid; anything else throws
/// std::logic_error naming `what`.
template <typename Keep>
void receive_expected(sim::Fabric& fabric, std::size_t node,
                      std::span<const std::size_t> senders, const char* what,
                      Keep keep) {
  std::vector<std::uint8_t> filled(senders.size(), 0);
  std::size_t kept = 0;
  bool stray = false;
  while (auto env = fabric.recv(node)) {
    std::size_t k = 0;
    while (k < senders.size() && (filled[k] || senders[k] != env->from)) ++k;
    if (k < senders.size() && keep(k, *env)) {
      filled[k] = 1;
      ++kept;
    } else {
      stray = true;
    }
  }
  if (fabric.transparent() && (stray || kept != senders.size())) {
    throw std::logic_error(std::string(what) +
                           ": the expected frames did not arrive exactly once");
  }
}

/// Worker w's replica as a FullModelMsg.
inline net::FullModelMsg replica_msg(sim::Engine& engine, std::size_t w) {
  const auto p = engine.params(w);
  return {.rank = static_cast<std::uint32_t>(w),
          .params = {p.begin(), p.end()}};
}

}  // namespace saps::algos
