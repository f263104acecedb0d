#include "algos/algorithm.hpp"

namespace saps::algos {

sim::RunResult run_rounds(
    sim::Engine& engine, const char* name,
    const std::function<void(std::size_t, sim::Engine&)>& on_round,
    const std::function<void(const Round&)>& step) {
  const std::size_t n = engine.workers();
  const std::size_t steps = engine.steps_per_epoch();
  const EvalSchedule schedule(engine.config(), steps);
  const auto eval = [&](std::size_t round) {
    return engine.eval_point(
        round, static_cast<double>(round) / static_cast<double>(steps));
  };

  sim::RunResult result;
  result.algorithm = name;
  result.history.push_back(eval(0));
  std::vector<std::size_t> active;
  active.reserve(n);
  std::size_t round = 0;
  for (std::size_t epoch = 0; epoch < engine.config().epochs; ++epoch) {
    for (std::size_t s = 0; s < steps; ++s) {
      if (on_round) on_round(round, engine);
      active.clear();
      for (std::size_t w = 0; w < n; ++w) {
        if (engine.active(w)) active.push_back(w);
      }
      step({.index = round, .epoch = epoch, .active = active});
      ++round;
      if (schedule.due(round)) result.history.push_back(eval(round));
    }
  }
  if (result.history.back().round != round) {
    result.history.push_back(eval(round));
  }
  return result;
}

}  // namespace saps::algos
