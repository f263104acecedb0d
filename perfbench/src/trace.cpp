#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;
  std::int32_t worker;
  std::int32_t round;
};

struct Buffer {
  std::vector<Record> records;
  std::vector<std::uint32_t> open;  // ids of the spans open on this thread
  std::size_t tid = 0;
};

const Clock::time_point g_origin = Clock::now();
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::int32_t> g_round{-1};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by the mutex
thread_local Buffer* t_buffer = nullptr;

// Chrome trace-event records: "M" names a thread, "X" is a complete span.
constexpr const char* kThreadEvent =
    R"({"name":"thread_name","ph":"M","pid":1,"tid":%zu,)"
    R"("args":{"name":"%s-%zu"}})";
constexpr const char* kSpanEvent =
    R"({"name":"%s","ph":"X","pid":1,"tid":%zu,"ts":%.3f,"dur":%.3f,)"
    R"("args":{"id":%u,"parent":%u,"worker":%d,"round":%d}})";

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->records.reserve(std::size_t{1} << 16);
    std::lock_guard lock(g_buffers_mutex);
    buffer->tid = g_buffers.size();
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_origin)
      .count();
}

std::uint32_t current_span() {
  const auto& open = local_buffer().open;
  return open.empty() ? 0 : open.back();
}

}  // namespace

void set_round(std::int32_t round) {
  g_round.store(round, std::memory_order_relaxed);
}

Span::Span(const char* name, std::int32_t worker)
    : Span(name, worker, current_span()) {}

Span::Span(const char* name, std::int32_t worker, std::uint32_t parent)
    : name_(name),
      start_ns_(0),
      id_(g_next_id.fetch_add(1, std::memory_order_relaxed)),
      parent_(parent),
      worker_(worker),
      round_(g_round.load(std::memory_order_relaxed)) {
  local_buffer().open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  const std::int64_t end = now_ns();
  auto& buffer = local_buffer();
  buffer.open.pop_back();
  buffer.records.push_back(
      {name_, start_ns_, end, id_, parent_, worker_, round_});
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard lock(g_buffers_mutex);
  out << R"({"displayTimeUnit":"ms","traceEvents":[)";
  const char* separator = "\n";
  char line[512];
  for (const auto& buffer : g_buffers) {
    const char* role = buffer->tid == 0 ? "main" : "pool";
    std::snprintf(line, sizeof line, kThreadEvent, buffer->tid, role,
                  buffer->tid);
    out << separator << line;
    separator = ",\n";
    for (const auto& r : buffer->records) {
      const double start_us = static_cast<double>(r.start_ns) / 1e3;
      const double dur_us = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      std::snprintf(line, sizeof line, kSpanEvent, r.name, buffer->tid,
                    start_us, dur_us, r.id, r.parent, r.worker, r.round);
      out << separator << line;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
