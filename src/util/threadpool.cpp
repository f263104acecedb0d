#include "util/threadpool.hpp"

#include <algorithm>
#include <exception>

namespace saps {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_tasks(std::size_t tasks,
                           const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (tasks == 1) {
    fn(0);  // inline: no queue round-trip
    return;
  }
  std::size_t remaining = tasks;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::condition_variable done_cv;
  std::mutex done_mutex;

  {
    std::lock_guard lock(mutex_);
    for (std::size_t t = 0; t < tasks; ++t) {
      tasks_.emplace([&, t] {
        try {
          fn(t);
        } catch (...) {
          std::lock_guard elock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // The decrement happens under done_mutex so the caller cannot
        // observe remaining == 0, return, and destroy these stack-local
        // primitives while this task is still about to touch them.
        {
          std::lock_guard dlock(done_mutex);
          --remaining;
          if (remaining == 0) done_cv.notify_all();
        }
      });
    }
  }
  cv_.notify_all();

  std::unique_lock dlock(done_mutex);
  done_cv.wait(dlock, [&] { return remaining == 0; });
  dlock.unlock();
  if (first_error) std::rethrow_exception(first_error);
}

// Runs body(block, begin, end) over `blocks` contiguous same-size-±1 blocks
// covering [0, n) in order.
void ThreadPool::run_blocks(
    std::size_t n, std::size_t blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t base = n / blocks, extra = n % blocks;
  run_tasks(blocks, [&](std::size_t b) {
    const std::size_t begin = b * base + std::min(b, extra);
    const std::size_t end = begin + base + (b < extra ? 1 : 0);
    body(b, begin, end);
  });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Oversubscribe blocks 4x so uneven per-index work still load-balances,
  // without paying one queue round-trip per index.
  run_blocks(n, std::min(n, size() * 4),
             [&](std::size_t, std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) fn(i);
             });
}

void ThreadPool::parallel_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  run_blocks(n, std::min(n, size()), fn);
}

}  // namespace saps
