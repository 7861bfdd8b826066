// Admission control and fair scheduling for server jobs.
//
// The server multiplexes every connection onto one worker pool; without
// admission control a single chatty tenant would starve everyone else and an
// overload would grow the queue without bound. Policy:
//
//  * Per-tenant FIFO queues, drained round-robin: each scheduling decision
//    advances a cursor over the tenants that currently have work, so a
//    tenant submitting 1000 jobs and a tenant submitting 1 alternate 1:1,
//    not 1000:1.
//  * Two caps, checked at submit time: a total queue cap (protects memory
//    and tail latency for everyone) and a per-tenant cap (stops one tenant
//    from owning the whole buffer). A submit over either cap is rejected
//    immediately with a reason — the server turns that into a structured
//    "overloaded" reply, which is backpressure a client can act on.
//  * stop() cancels the shared CancelToken and drains: queued jobs still
//    run, but see a cancelled token (and an already-expired Deadline derived
//    from it), so they exit on their next poll. Every accepted job runs
//    exactly once — accepted-but-dropped jobs would break the server's
//    one-reply-per-request guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>
#include <condition_variable>

#include "common/deadline.hpp"

namespace qc::serve {

/// Ceiling on SchedulerOptions::queue_cap read from QAPPROX_SERVE_QUEUE_CAP.
inline constexpr std::size_t kMaxQueueCap = std::size_t{1} << 16;

struct SchedulerOptions {
  std::size_t workers = 4;
  std::size_t queue_cap = 256;      // total queued jobs across tenants
  std::size_t per_tenant_cap = 128; // queued jobs for any single tenant
};

struct SchedulerStats {
  std::size_t queued = 0;        // currently waiting
  std::size_t running = 0;       // currently on a worker
  std::size_t tenants = 0;       // tenants with queued work
  std::uint64_t submitted = 0;   // accepted jobs, lifetime
  std::uint64_t rejected = 0;    // cap rejections, lifetime
  std::uint64_t completed = 0;   // jobs whose body returned, lifetime
  std::size_t peak_queued = 0;   // high-water mark (bounded-depth evidence)
  std::uint64_t surplus_spawned = 0;  // replacement workers, lifetime
  std::size_t live_workers = 0;  // threads currently in the loop
};

class JobScheduler {
 public:
  /// A job body; receives the scheduler's shared cancel token (cancelled on
  /// stop()) to merge into its own deadline. Must not throw — the server
  /// wraps every body in its own catch-all so a reply always goes out.
  using Job = std::function<void(const common::CancelToken&)>;

  explicit JobScheduler(const SchedulerOptions& options = {});
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job for `tenant`. Returns false (and fills `reject_reason`)
  /// when a queue cap is hit or the scheduler is stopping; the job is then
  /// never run.
  bool submit(const std::string& tenant, Job job,
              std::string* reject_reason = nullptr);

  /// Cancels the shared token, wakes all workers, runs every queued job to
  /// completion (under the cancelled token), and joins. Idempotent.
  void stop();

  /// Adds one temporary worker thread to replace a slot wedged by a reaped
  /// job (see watchdog.hpp). Surplus workers retire — the next worker to
  /// finish a job exits instead of looping — once the pool is back above its
  /// configured size, so repeated reaps do not grow the pool permanently.
  /// No-op while stopping.
  void spawn_surplus_worker();

  /// The server calls this when a reaped job's body finally returns: its
  /// thread is no longer wedged, so the pool is genuinely oversize and the
  /// next finishing worker retires.
  void note_wedged_worker_returned();

  /// Blocks until no job is queued or running (test/soak synchronization).
  void wait_idle();

  SchedulerStats stats() const;

  const common::CancelToken& cancel_token() const { return cancel_; }

 private:
  void worker_loop();
  /// Pops the next job round-robin; empty optional when queues are empty.
  bool pop_next(Job* out);

  SchedulerOptions options_;
  common::CancelToken cancel_ = common::CancelToken::make();

  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers: work available / stopping
  std::condition_variable idle_cv_;   // wait_idle(): queue drained
  std::map<std::string, std::deque<Job>> queues_;
  std::vector<std::string> rr_tenants_;  // round-robin order of active tenants
  std::size_t rr_cursor_ = 0;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  std::size_t live_workers_ = 0;  // threads currently inside worker_loop
  std::size_t wedged_ = 0;        // reaped jobs' threads not yet returned
  bool stopping_ = false;
  SchedulerStats lifetime_;  // submitted/rejected/completed/peak under mu_

  std::vector<std::thread> workers_;
};

}  // namespace qc::serve
