// Watchdog: detects hung/runaway jobs and reaps their scheduler slots.
//
// A cooperative deadline only works when the job polls it; a job wedged
// inside non-polling code (a pathological kernel loop, a stuck syscall, an
// injected hang) holds its worker forever and the server quietly loses a
// slot. The watchdog closes that gap with a two-strike scan:
//
//   strike 1 — a job is overdue (elapsed > budget × grace): cancel its
//              per-job token (linked to, but distinct from, the scheduler's
//              stop token) and record its progress beacon. A merely-slow job
//              observes the cancel at its next StopPoller poll and winds
//              down on its own.
//   strike 2 — next scan, still running AND the beacon has not moved: the
//              job is not polling and will never see the cancel. Reap it:
//              invoke the reap callback (the server sends a structured
//              "reaped" timeout reply and journals it) and ask the scheduler
//              for a surplus worker so the wedged slot is replaced.
//
// Reaping answers the client; it cannot unwind the stuck thread. The thread
// keeps burning its core until it returns or the process exits — the reply
// it eventually produces is suppressed by the ticket's replied flag, and the
// surplus worker retires to keep the pool at its configured size.
//
// Jobs with no deadline at all are exempt (budget 0 = they may legitimately
// run forever); the scan period comes from QAPPROX_WATCHDOG_MS, the grace is
// fixed at WatchdogOptions' default.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.hpp"
#include "common/json.hpp"

namespace qc::serve {

struct WatchdogOptions {
  /// Scan period; <= 0 disables the watchdog (QAPPROX_WATCHDOG_MS).
  double scan_period_ms = 250.0;
  /// A job is overdue once elapsed > budget × grace; below 1 it would race
  /// healthy jobs.
  double grace = 4.0;
};

/// One running job's registration. The server owns a shared_ptr for the
/// duration of the job body; the watchdog holds another for its scan table.
struct JobTicket {
  std::uint64_t id = 0;
  std::string kind;    // "simulate" | "synthesize"
  std::string tenant;
  std::string key;     // journal key ("" = not journaled)
  common::json::Value request_id;  // echoed in the reaped reply
  /// Keyless jobs only: where their one reply goes. Keyed jobs reply through
  /// the JobLedger's waiter table, which also serves attached retries.
  std::function<void(const common::json::Value&)> reply_to;
  /// Deadline budget in ms; 0 = unbounded (never reaped).
  double budget_ms = 0.0;
  std::chrono::steady_clock::time_point started_at;
  /// Cancelled at strike 1; the job's Deadline carries this token.
  common::CancelToken cancel;
  /// Bumped by every Deadline::expired() poll (Deadline::with_progress).
  std::shared_ptr<std::atomic<std::uint64_t>> beacon =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  /// Exactly-one-reply arbitration between the worker and the reaper: both
  /// exchange(true) and only the winner sends.
  std::shared_ptr<std::atomic<bool>> replied =
      std::make_shared<std::atomic<bool>>(false);

  // Watchdog-internal strike state (only the scan thread touches these).
  bool struck = false;
  std::uint64_t beacon_at_strike = 0;
};

struct WatchdogStats {
  bool enabled = false;
  std::uint64_t scans = 0;
  std::uint64_t strikes = 0;   // cancels issued (strike 1)
  std::uint64_t reaped = 0;    // slots given up on (strike 2)
  std::size_t watched = 0;     // currently registered jobs
};

class Watchdog {
 public:
  /// Called (from the scan thread) for each reaped job. The callback must
  /// not block on the reaped job itself.
  using ReapFn = std::function<void(const std::shared_ptr<JobTicket>&)>;

  Watchdog(const WatchdogOptions& options, ReapFn on_reap);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool enabled() const { return options_.scan_period_ms > 0.0; }

  /// Registers a job that is now running. No-op (returns the ticket
  /// untracked) when disabled.
  void watch(const std::shared_ptr<JobTicket>& ticket);

  /// Unregisters a finished job (normal completion or cooperative wind-down).
  void release(const std::shared_ptr<JobTicket>& ticket);

  /// Stops the scan thread. Idempotent; called before the scheduler joins so
  /// the reap callback never races teardown.
  void stop();

  WatchdogStats stats() const;

 private:
  void scan_loop();
  void scan_once();

  WatchdogOptions options_;
  ReapFn on_reap_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::unordered_map<std::uint64_t, std::shared_ptr<JobTicket>> watched_;
  WatchdogStats stats_;
  std::thread scanner_;
};

}  // namespace qc::serve
