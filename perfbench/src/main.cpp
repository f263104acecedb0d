// perfbench: one measured training run per process.
//
//   perfbench run   --spec FILE --seed N --threads N
//   perfbench trace --spec FILE --seed N --threads N --trace-out FILE
//
// `run` executes the spec through scenario::Runner::run — the path users
// run — with tracing off.  A MetricSink stamps the end of set-up (its
// begin_run callback) and every evaluation point with a steady_clock time.
// `trace` composes the same run from public library calls with a span
// around each (compose.hpp), writes the spans as Chrome trace-event JSON,
// and reports its work counts and the outputs run.py compares against an
// untraced run.
//
// Both print a single JSON object on the last line of standard output;
// run.py turns these into the benchmark's metrics.  `spec` files carry no
// `seed=` or `threads=` line: both are appended here from the arguments, so
// the seed is the only key that changes between seeds, and the workload
// (datasets, model initialization) is built under kDataSeed instead (see
// pinned_workload).
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compose.hpp"
#include "scenario/runner.hpp"
#include "trace.hpp"

namespace {

using namespace saps;
using Clock = std::chrono::steady_clock;

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A /proc/self/status field in MB (VmHWM = peak resident set, VmRSS =
/// current); throws when the field is missing.
double proc_status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("/proc/self/status has no " + field);
}

/// The workload (datasets + model factory) is built under this seed, not
/// the run's seed: the synthetic CIFAR generator redraws its class styles
/// from the seed, and across seeds that redraw, not training randomness,
/// moved time to target by 40-60% (IQR over median of the crossing round).
/// The run's seed varies the training randomness: partition, samplers, peer
/// matching, masks and cohort draws.
constexpr std::uint64_t kDataSeed = 1;

std::string spec_text(const std::string& path, const std::string& seed,
                      const std::string& threads) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read spec file " + path);
  std::ostringstream text;
  text << f.rdbuf() << "\nseed=" << seed << "\nthreads=" << threads << "\n";
  return text.str();
}

std::string the_algorithm(const scenario::ScenarioSpec& spec) {
  const auto algos = spec.effective_algorithms();
  if (algos.size() != 1) {
    throw std::invalid_argument("a benchmark spec names exactly one algorithm");
  }
  return algos.front();
}

/// Training samples the run processed: every participant takes one
/// mini-batch per local step.  Workload shard sizes are multiples of the
/// batch, so every batch is full.
double trained_samples(const std::string& algo, const scenario::Runner& runner,
                       std::size_t rounds) {
  const auto cfg = runner.sim_config();
  double per_round = static_cast<double>(cfg.workers);
  if (algo == "fedavg") {
    const auto steps = runner.spec().params.get_int("fedavg-steps");
    if (cfg.cohort >= cfg.workers || steps <= 0) {
      throw std::invalid_argument(
          "benchmark fedavg specs set cohort < population and fedavg-steps");
    }
    per_round = static_cast<double>(cfg.cohort * steps);
  }
  return static_cast<double>(rounds) * per_round *
         static_cast<double>(cfg.batch_size);
}

class TimingSink final : public scenario::MetricSink {
 public:
  void begin_run(const scenario::RunMeta&) override { begin_ = Clock::now(); }
  void point(const scenario::RunMeta&, const sim::MetricPoint& p) override {
    points_.push_back({Clock::now(), p});
  }
  void end_run(const scenario::RunMeta&) override { end_ = Clock::now(); }

  Clock::time_point begin() const { return begin_; }
  Clock::time_point end() const { return end_; }
  const auto& points() const { return points_; }

 private:
  struct Stamped {
    Clock::time_point at;
    sim::MetricPoint point;
  };
  Clock::time_point begin_;
  Clock::time_point end_;
  std::vector<Stamped> points_;
};

std::string provenance(const scenario::Runner& runner) {
  return "\"threads\":" + std::to_string(runner.sim_config().threads) +
         ",\"compiler\":" + quoted(PERFBENCH_COMPILER) +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"data_seed\":" + std::to_string(kDataSeed) +
         ",\"spec_text\":" + quoted(scenario::to_spec_text(runner.spec()));
}

/// The spec's workload, built under kDataSeed.
scenario::Workload pinned_workload(scenario::ScenarioSpec spec) {
  spec.seed = kDataSeed;
  return scenario::build_workload(spec);
}

int run_untraced(const std::string& spec_path, const std::string& seed,
                 const std::string& threads) {
  const auto start = Clock::now();
  const auto spec =
      scenario::parse_spec_text(spec_text(spec_path, seed, threads));
  const auto algo = the_algorithm(spec);
  const auto workload = pinned_workload(spec);
  scenario::Runner runner(spec, workload);
  auto owned_sink = std::make_unique<TimingSink>();
  const TimingSink& sink = *owned_sink;
  scenario::SinkList sinks;
  sinks.add(std::move(owned_sink));
  const auto record = runner.run(algo, &sinks);
  const double peak_rss_mb = proc_status_mb("VmHWM");
  const auto& final_point = record.result.final();
  std::ostringstream out;
  out << "{\"setup_s\":" << num(seconds(start, sink.begin()))
      << ",\"loop_s\":" << num(seconds(sink.begin(), sink.end()))
      << ",\"samples\":"
      << num(trained_samples(algo, runner, final_point.round))
      << ",\"peak_rss_mb\":" << num(peak_rss_mb)
      << ",\"final_accuracy\":" << num(final_point.accuracy)
      << ",\"final_loss\":" << num(final_point.loss)
      << ",\"traffic_mb\":" << num(record.traffic_mb)
      << ",\"sim_comm_s\":" << num(record.comm_seconds) << ",\"points\":[";
  // [seconds since the end of set-up, round, test accuracy]
  for (std::size_t i = 0; i < sink.points().size(); ++i) {
    const auto& s = sink.points()[i];
    out << (i ? "," : "") << "[" << num(seconds(sink.begin(), s.at)) << ","
        << s.point.round << "," << num(s.point.accuracy) << "]";
  }
  out << "]," << provenance(runner) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

sim::Engine traced_engine(const scenario::Runner& runner) {
  const perfbench::Span span("sim.engine_build");
  return runner.make_engine();
}

int run_traced(const std::string& spec_path, const std::string& seed,
               const std::string& threads, const std::string& trace_out) {
  const auto text = spec_text(spec_path, seed, threads);
  scenario::ScenarioSpec spec;
  {
    const perfbench::Span span("scenario.spec");
    spec = scenario::parse_spec_text(text);
  }
  const auto algo = the_algorithm(spec);
  scenario::Workload workload;
  {
    const perfbench::Span span("data.workload_build");
    workload = pinned_workload(spec);
  }
  const scenario::Runner runner = [&] {
    const perfbench::Span span("scenario.spec");
    return scenario::Runner(spec, workload);
  }();

  std::ostringstream out;
  {
    auto engine = traced_engine(runner);
    const double rss_after_setup_mb = proc_status_mb("VmRSS");
    perfbench::TracedRun traced;
    {
      const perfbench::Span loop("algos.loop");
      traced = perfbench::run_traced(algo, engine, runner.spec());
    }
    const auto& final_point = traced.result.final();
    out << "{\"final_accuracy\":" << num(final_point.accuracy)
        << ",\"final_loss\":" << num(final_point.loss)
        << ",\"traffic_mb\":"
        << num(engine.network().mean_worker_bytes() / 1e6)
        << ",\"sim_comm_s\":" << num(engine.network().total_seconds())
        << ",\"samples\":"
        << num(traced.counters.at("sim.sgd_steps") *
               static_cast<double>(runner.sim_config().batch_size))
        << ",\"rss_after_setup_mb\":" << num(rss_after_setup_mb)
        << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : traced.counters) {
      out << (first ? "" : ",") << quoted(name) << ":" << num(value);
      first = false;
    }
    out << "}," << provenance(runner) << "}";
  }  // the engine's pool threads are joined before the buffers are read
  perfbench::write_chrome_trace(trace_out);
  std::cout << out.str() << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench run --spec FILE --seed N --threads N\n"
               "       perfbench trace --spec FILE --seed N --threads N "
               "--trace-out FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opts;
  for (int i = 2; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc || arg.rfind("--", 0) != 0) return usage();
    opts[arg.substr(2)] = argv[i + 1];
  }
  if (!opts.contains("spec") || !opts.contains("seed") ||
      !opts.contains("threads")) {
    return usage();
  }
  try {
    if (mode == "run") {
      return run_untraced(opts["spec"], opts["seed"], opts["threads"]);
    }
    if (mode == "trace" && opts.contains("trace-out")) {
      return run_traced(opts["spec"], opts["seed"], opts["threads"],
                        opts["trace-out"]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
