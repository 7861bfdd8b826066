// Fixed-size thread pool with a deterministic parallel_for.
//
// Experiment drivers fan per-circuit / per-timestep work across the pool.
// Workers claim indices dynamically, one at a time, and each index writes
// only its own output slot, so results are identical for any thread count
// (including 1) and any claiming order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qc::common {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 means hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [begin, end) on up to size() tasks that claim
  /// indices from a shared counter; blocks until all iterations finish.
  /// Exceptions from fn are rethrown (first one wins) after all workers
  /// drain; the task that threw claims no further index.
  ///
  /// Re-entrant: while waiting, the calling thread executes queued tasks
  /// itself, so nested parallel_for calls (experiment loop -> scatter study
  /// -> per-shot trajectories) make progress even when every worker is busy
  /// instead of deadlocking.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide pool, sized from QAPPROX_THREADS or hardware concurrency.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Hard ceiling on QAPPROX_THREADS and QAPPROX_SERVE_WORKERS: a value above
/// it is malformed like any other, so it warns and falls back to the default
/// (hardware concurrency for the pool) — a mistyped value must not spawn
/// tens of thousands of threads.
inline constexpr std::size_t kMaxThreadPoolSize = 1024;

}  // namespace qc::common
