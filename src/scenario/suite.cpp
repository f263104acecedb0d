#include "scenario/suite.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>

#include "util/threadpool.hpp"

namespace saps::scenario {

namespace {

/// Buffers one grid point's sink events for in-order replay: the ordered
/// sinks (table/csv/jsonl) are not thread-safe and their byte stream must
/// not depend on point completion order.
class RecordingSink final : public MetricSink {
 public:
  enum class Kind { kBegin, kPoint, kEnd };
  struct Event {
    Kind kind = Kind::kBegin;
    RunMeta meta;
    sim::MetricPoint point{};
  };

  void begin_run(const RunMeta& meta) override {
    events_.push_back({Kind::kBegin, meta, {}});
  }
  void point(const RunMeta& meta, const sim::MetricPoint& p) override {
    events_.push_back({Kind::kPoint, meta, p});
  }
  void end_run(const RunMeta& meta) override {
    events_.push_back({Kind::kEnd, meta, {}});
  }

  [[nodiscard]] std::vector<Event> take() { return std::move(events_); }

 private:
  std::vector<Event> events_;
};

void replay(const std::vector<RecordingSink::Event>& events, SinkList& out) {
  for (const auto& e : events) {
    switch (e.kind) {
      case RecordingSink::Kind::kBegin:
        out.begin_run(e.meta);
        break;
      case RecordingSink::Kind::kPoint:
        out.point(e.meta, e.point);
        break;
      case RecordingSink::Kind::kEnd:
        out.end_run(e.meta);
        break;
    }
  }
}

/// Everything WorkloadContext + the workload's own parameters see: points
/// agreeing on this key share one built Workload (datasets are the
/// expensive part of a point).
std::string workload_cache_key(const ScenarioSpec& spec) {
  std::string key = spec.workload;
  const auto add = [&key](const std::string& part) {
    key += '|';
    key += part;
  };
  add(std::to_string(spec.workers));
  add(std::to_string(spec.seed));
  add(spec.full ? "full" : "fast");
  add(std::to_string(spec.samples));
  add(std::to_string(spec.test_samples));
  for (const auto& d : Registry::instance().workload(spec.workload).params) {
    // finalize_spec materialized every workload parameter.
    add(d.name + "=" + spec.params.raw(d.name));
  }
  return key;
}

std::string percent(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f%%", frac * 100.0);
  return buf;
}

}  // namespace

SuiteRunner::SuiteRunner(SweepSpec sweep, SuiteOptions options)
    : sweep_(std::move(sweep)), options_(options) {}

std::vector<SuitePointResult> SuiteRunner::run() {
  const std::size_t n = sweep_.point_count();
  std::vector<SuitePointResult> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    results[i].index = i;
    results[i].label = sweep_.point_label(i);
    results[i].spec = sweep_.point(i);
  }

  // Build each distinct workload once, serially and in first-use order, so
  // the parallel phase shares them read-only with no build races.
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<std::size_t> workload_of(n, 0);
  {
    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < n; ++i) {
      const auto key = workload_cache_key(results[i].spec);
      const auto [it, inserted] = index_of.emplace(key, workloads.size());
      if (inserted) {
        workloads.push_back(
            std::make_unique<Workload>(build_workload(results[i].spec)));
      }
      workload_of[i] = it->second;
      results[i].workload_name = workloads[it->second]->display_name;
    }
  }

  // Ordered-output state: completed points flush to the shared sinks (and
  // the progress stream) strictly in grid order, as the done prefix grows.
  std::mutex flush_mu;
  std::vector<std::vector<RecordingSink::Event>> recorded(n);
  std::vector<bool> done(n, false);
  std::size_t next_flush = 0;

  const bool want_sinks =
      options_.sinks != nullptr && !options_.sinks->empty();

  const auto run_point = [&](std::size_t i) {
    SinkList local;
    RecordingSink* rec = nullptr;
    if (want_sinks) {
      auto sink = std::make_unique<RecordingSink>();
      rec = sink.get();
      local.add(std::move(sink));
    }
    Runner runner(results[i].spec, *workloads[workload_of[i]]);
    results[i].runs = runner.run_all(&local);

    std::lock_guard lock(flush_mu);
    if (rec != nullptr) recorded[i] = rec->take();
    done[i] = true;
    while (next_flush < n && done[next_flush]) {
      const auto& r = results[next_flush];
      if (want_sinks) replay(recorded[next_flush], *options_.sinks);
      if (options_.progress != nullptr) {
        double best = 0.0;
        for (const auto& run : r.runs) {
          best = std::max(best, run.result.final().accuracy);
        }
        *options_.progress << "[" << (next_flush + 1) << "/" << n << "] "
                           << r.label << ": runs=" << r.runs.size()
                           << " best_acc=" << percent(best) << "\n";
      }
      recorded[next_flush].clear();
      ++next_flush;
    }
  };

  if (options_.threads > 1 && n > 1) {
    ThreadPool pool(options_.threads);
    pool.run_tasks(n, run_point);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_point(i);
  }
  return results;
}

}  // namespace saps::scenario
