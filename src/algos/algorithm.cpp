#include "algos/algorithm.hpp"

namespace saps::algos {

sim::RunResult run_rounds(
    sim::Engine& engine, const char* name,
    const std::function<void(std::size_t, sim::Engine&)>& on_round,
    const Schedule& schedule, const std::function<void(const Round&)>& step) {
  const std::size_t steps = engine.steps_per_epoch();
  const std::size_t epochs = engine.config().epochs;
  const double budget = static_cast<double>(epochs);
  const bool accumulated = schedule.epochs_per_round > 0.0;
  const EvalSchedule cadence(engine.config(), steps);

  sim::RunResult result;
  result.algorithm = name;
  const auto eval = [&](std::size_t round, double epoch) {
    const auto params = schedule.eval_params;
    result.history.push_back(engine.eval_point(round, epoch, params));
  };
  const auto synchronous_epoch = [&](std::size_t round) {
    return static_cast<double>(round) / static_cast<double>(steps);
  };

  eval(0, 0.0);
  double progress = 0.0;  // epochs completed, when accumulated
  std::size_t round = 0;  // rounds completed
  while (accumulated ? progress < budget : round < epochs * steps) {
    if (engine.cohort_mode()) {
      const std::size_t key = round + schedule.cohort_key_offset;
      engine.begin_round_cohort(key, schedule.keep);
    }
    if (on_round) on_round(round, engine);
    const std::size_t epoch =
        accumulated ? static_cast<std::size_t>(progress) : round / steps;
    step({.index = round, .epoch = epoch, .active = engine.active_list()});
    ++round;
    if (accumulated) {
      // Known defect, a FOUND line of CHANGES.md: the sum can fall just
      // short of a whole epoch (six rounds of 1/6 make 0.9999999999999999),
      // and the run then takes one round more than its epoch budget.
      progress += schedule.epochs_per_round;
      eval(round, progress);
    } else if (cadence.due(round)) {
      eval(round, synchronous_epoch(round));
    }
  }
  if (result.history.back().round != round) {
    eval(round, synchronous_epoch(round));
  }
  return result;
}

}  // namespace saps::algos
