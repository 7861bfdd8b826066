#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace qc::common {

namespace {

/// Pool-wide instruments, bound once. queue_depth counts tasks sitting in
/// pool queues; tasks_executed counts completions (worker or helping caller);
/// busy_ns / task_ns are recorded only while obs::timing_enabled().
struct PoolMetrics {
  obs::Counter& tasks_executed{obs::counter("pool.tasks_executed")};
  obs::Counter& busy_ns{obs::counter("pool.busy_ns")};
  obs::Counter& helper_tasks{obs::counter("pool.caller_helped_tasks")};
  obs::Gauge& queue_depth{obs::gauge("pool.queue_depth")};
  obs::Gauge& workers{obs::gauge("pool.workers")};
  obs::Histogram& task_ns{obs::histogram("pool.task_ns")};
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// Runs one queued task, feeding the execution counters (and, when timing is
/// on, the duration instruments). `per_worker_busy_ns` is null on the
/// caller-helping path.
void run_task(const std::function<void()>& task, obs::Counter* per_worker_busy_ns) {
  PoolMetrics& m = pool_metrics();
  if (obs::timing_enabled()) {
    const std::uint64_t t0 = obs::detail::trace_now_ns();
    task();
    const std::uint64_t dt = obs::detail::trace_now_ns() - t0;
    m.busy_ns.add(dt);
    m.task_ns.record(dt);
    if (per_worker_busy_ns != nullptr) per_worker_busy_ns->add(dt);
  } else {
    task();
  }
  m.tasks_executed.add(1);
  if (per_worker_busy_ns == nullptr) m.helper_tasks.add(1);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  obs::init_from_env();
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  pool_metrics().workers.set(static_cast<std::int64_t>(num_threads));
  QC_LOG_DEBUG("thread_pool", "pool started with %zu workers", num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // Per-worker tallies make utilization skew visible: a starving worker shows
  // a busy_ns far below its siblings. Bound once per thread (cold).
  obs::Counter& worker_busy =
      obs::counter("pool.worker." + std::to_string(worker_index) + ".busy_ns");
  PoolMetrics& m = pool_metrics();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    m.queue_depth.add(-1);
    run_task(task, &worker_busy);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t num_chunks = std::min(n, workers_.size());
  if (num_chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Completion state is heap-owned and captured by value in every task: the
  // caller's wait loop exits on a lock-free remaining==0 check, which can
  // happen while the worker that ran the last chunk is still between its
  // fetch_sub and the notify. Shared ownership keeps done_mutex/done_cv alive
  // for that worker even after the caller has returned. Only `fn` may be
  // captured by reference — every call to it happens before the decrement the
  // caller waits on.
  struct Latch {
    std::atomic<std::size_t> next;  // the next unclaimed index
    std::atomic<std::size_t> remaining;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::mutex error_mutex;
    std::exception_ptr first_error;
  };
  auto latch = std::make_shared<Latch>();
  latch->next.store(begin, std::memory_order_relaxed);
  latch->remaining.store(num_chunks, std::memory_order_relaxed);

  // Each task claims indices one at a time until the range is exhausted, so
  // a worker that drew cheap iterations takes more of them instead of idling
  // behind a static share (later timesteps and deeper circuits cost more). A
  // task that throws stops claiming; the others finish the range.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      tasks_.push([latch, &fn, end] {
        try {
          for (;;) {
            const std::size_t i = latch->next.fetch_add(1);
            if (i >= end) break;
            fn(i);
          }
        } catch (...) {
          std::lock_guard<std::mutex> elock(latch->error_mutex);
          if (!latch->first_error) latch->first_error = std::current_exception();
        }
        if (latch->remaining.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> dlock(latch->done_mutex);
          latch->done_cv.notify_all();
        }
      });
    }
  }
  pool_metrics().queue_depth.add(static_cast<std::int64_t>(num_chunks));
  cv_.notify_all();

  // Help drain the queue while waiting. The tasks we pick up may belong to
  // another in-flight parallel_for (they complete it; its own waiter sees the
  // decrement) — what matters is that a blocked caller always makes progress,
  // which is what keeps nested calls from worker threads deadlock-free.
  while (latch->remaining.load() != 0) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop();
      }
    }
    if (task) {
      pool_metrics().queue_depth.add(-1);
      run_task(task, nullptr);
      continue;
    }
    // Queue empty but our chunks still run elsewhere: sleep with a short
    // timeout so a task enqueued by *another* batch (which signals cv_, not
    // our local done_cv) cannot strand us.
    std::unique_lock<std::mutex> dlock(latch->done_mutex);
    latch->done_cv.wait_for(dlock, std::chrono::milliseconds(1),
                            [&] { return latch->remaining.load() == 0; });
  }
  if (latch->first_error) std::rethrow_exception(latch->first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    obs::init_from_env();  // QAPPROX_LOG must apply before any parse warning
    return env_number<std::size_t>("QAPPROX_THREADS", 0, 1, kMaxThreadPoolSize);
  }());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace qc::common
