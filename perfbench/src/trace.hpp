// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside src/ is instrumented.  Each
// thread appends to its own buffer (no lock on the hot path), timestamps come
// from std::chrono::steady_clock, and the buffers are written out once, as
// Chrome trace-event JSON, after the run ends.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// The loop round stamped on spans opened from now on (-1 = outside the
/// training loop).  Set from the driving thread only, between parallel
/// sections.
void set_round(std::int32_t round);

/// RAII span: opened at construction, recorded at destruction.  `parent`
/// defaults to the innermost span open on the same thread; spans opened on
/// pool threads pass the phase span they belong to explicitly.
class Span {
 public:
  explicit Span(const char* name, std::int32_t worker = -1);
  Span(const char* name, std::int32_t worker, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::int64_t start_ns_;
  std::uint32_t id_;
  std::uint32_t parent_;
  std::int32_t worker_;
  std::int32_t round_;
};

/// Writes every recorded span as Chrome trace-event JSON ("X" events, wall
/// microseconds; id/parent/worker/round in args).  Trace thread 0 is the
/// first thread that opened a span.  Throws on I/O failure.
void write_chrome_trace(const std::string& path);

}  // namespace perfbench
