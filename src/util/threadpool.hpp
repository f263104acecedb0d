// Fixed-size thread pool with parallel_for / parallel_chunks helpers.
//
// The simulation engine is single-threaded by default for bit-determinism;
// the pool is used where per-worker computations inside a round are
// independent (local SGD steps, compression, gossip merges of disjoint
// pairs) and determinism is preserved because each task owns its state and
// RNG stream.  Cross-worker reductions stay outside the pool, in fixed
// worker order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace saps {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all finish.
  /// Indices are batched into contiguous blocks internally, so call sites
  /// never hand-roll task batching.  Exceptions from tasks are rethrown
  /// (first one observed wins); an exception skips the rest of its block.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Splits [0, n) into at most size() contiguous blocks and runs
  /// fn(chunk, begin, end) for each, blocking until all finish.  `chunk` is
  /// the block index in [0, min(n, size())); blocks cover [0, n) in order
  /// and sizes differ by at most one.  Use for reductions that pre-compute
  /// per-block partials which the caller then combines in block order.
  void parallel_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Enqueues fn(t) for t in [0, tasks) and blocks until all complete;
  /// rethrows the first exception observed.  A single task runs inline on
  /// the caller (no queue round-trip).  The primitive behind parallel_for
  /// and parallel_chunks.  A task must not fan out onto its own pool: it
  /// would wait on a queue that the waiting workers are meant to drain.
  void run_tasks(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Shared block partitioner behind parallel_for / parallel_chunks.
  void run_blocks(
      std::size_t n, std::size_t blocks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace saps
