// The qapprox server: approximation-as-a-service over a local socket.
//
// A long-lived daemon that accepts simulate/synthesize jobs over the
// length-prefixed JSON wire protocol (wire.hpp + protocol.hpp) on an AF_UNIX
// stream socket and multiplexes them onto one shared worker pool
// (scheduler.hpp), so every client amortizes one warm ExecutionEngine and
// one warm synthesis cache instead of cold-starting a process per figure.
//
// Structure: an accept thread starts one thread per connection, which
// starts that connection's writer; readers decode frames and either answer
// inline (ping/stats/metrics/shutdown — cheap, never queued behind
// synthesis) or submit a job. Replies stream back in completion order
// through a bounded per-connection write queue (write_budget_bytes; a
// reader slower than its replies is disconnected rather than buffered
// without limit). A connection cleans up after itself: when its read loop
// ends it waits for its writer, which exits once every job the connection
// dispatched has replied (or a write failed), and then leaves the server's
// live set; threads are held for live connections plus at most one ended.
//
// Crash durability (DESIGN.md §14): with QAPPROX_JOURNAL_DIR set,
// idempotency-keyed jobs are journaled ACCEPTED/STARTED/DONE over a
// CRC-framed WAL — DONE fsync'd before the reply is sent — so a SIGKILL
// mid-load loses no acked work: restart replays the journal, rebuilds the
// reply-replay cache, and re-enqueues incomplete jobs. Retries carrying the
// same "idem" key replay the cached reply or attach to the in-flight
// execution instead of re-executing; the JobLedger (journal.hpp) owns all of
// that bookkeeping. A watchdog (QAPPROX_WATCHDOG_MS) cancels overdue jobs
// and, when a job stops polling entirely, reaps its slot with a structured
// "reaped" reply and a replacement worker. Worker and reaper complete a job
// through one function, and whichever gets there first owns the reply.
//
// Lifecycle: start() recovers the journal, warm-starts the synthesis cache
// from QAPPROX_SYNTH_CACHE_DIR (when set), re-enqueues recovered jobs,
// binds, and returns; wait() blocks until a shutdown request (wire or
// signal handler calling request_shutdown()); stop() shuts the listener
// down and joins the accept thread (only then closing its fd), stops the
// watchdog, drains the scheduler (every accepted job runs, under a
// cancelled token — exactly one reply per request, never a leak), shuts
// down the read side of every live connection and waits for the live set to
// drain (each reader answers what it had buffered, each writer flushes),
// compacts the journal, and snapshots the synthesis cache back to disk.
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

#include "common/json.hpp"
#include "obs/trace.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/tail.hpp"
#include "serve/watchdog.hpp"
#include "serve/wire.hpp"

namespace qc::serve {

struct ServerOptions {
  /// AF_UNIX socket path (kept short: sun_path is ~108 bytes).
  std::string socket_path = "/tmp/qapprox.sock";
  SchedulerOptions scheduler;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Synthesis-cache snapshot directory ("" = no persistence). Defaults to
  /// QAPPROX_SYNTH_CACHE_DIR via from_env().
  std::string synth_cache_dir;
  /// Tail-sample capture directory ("" = tail sampling off). When set, the
  /// server force-enables tracing with bounded per-thread rings and writes
  /// the slowest / degraded / errored jobs' traces here (QAPPROX_TRACE_DIR).
  std::string trace_dir;
  /// Slowest jobs captured per rolling window.
  std::size_t tail_top_k = 3;
  /// > 0: a background thread snapshots the metrics registry every period —
  /// JSON to the QAPPROX_METRICS path and Prometheus text next to it
  /// (`<path>.prom`), both via atomic rename (QAPPROX_METRICS_PERIOD_MS).
  double metrics_period_ms = 0.0;
  /// Job-journal directory ("" = crash durability off). When set, idem-keyed
  /// jobs are journaled (see journal.hpp) and restart re-enqueues incomplete
  /// work (QAPPROX_JOURNAL_DIR).
  std::string journal_dir;
  /// Reply-replay cache entries. Retries of keys past the cap re-execute, so
  /// size chaos/retry horizons under it.
  std::size_t replay_cache_cap = 4096;
  /// Per-connection write-queue byte budget. A reader slower than its
  /// replies accumulate is disconnected at the budget instead of growing the
  /// queue without bound.
  std::size_t write_budget_bytes = 8u << 20;
  /// Hung-job watchdog (scan period: QAPPROX_WATCHDOG_MS).
  WatchdogOptions watchdog;

  /// The server's one source of settings: QAPPROX_SERVE_SOCKET,
  /// QAPPROX_SERVE_WORKERS in [1, kMaxThreadPoolSize],
  /// QAPPROX_SERVE_QUEUE_CAP in [1, kMaxQueueCap], QAPPROX_SYNTH_CACHE_DIR,
  /// QAPPROX_TRACE_DIR, QAPPROX_METRICS_PERIOD_MS and QAPPROX_WATCHDOG_MS in
  /// [0, kMaxPeriodMs], QAPPROX_JOURNAL_DIR. Numbers are read by
  /// common::env_number: a malformed or out-of-range value warns and keeps
  /// the default.
  static ServerOptions from_env();
};

class QapproxServer {
 public:
  explicit QapproxServer(ServerOptions options);
  ~QapproxServer();

  QapproxServer(const QapproxServer&) = delete;
  QapproxServer& operator=(const QapproxServer&) = delete;

  /// Warm-starts the synthesis cache, binds, listens, starts accepting.
  /// Throws common::Error when the socket cannot be bound.
  void start();

  /// Blocks until request_shutdown() (wire "shutdown" request, signal
  /// handler, or another thread).
  void wait();

  /// Wakes wait(). Does not tear anything down by itself. Async-signal
  /// unsafe parts avoided: just a flag + condition variable.
  void request_shutdown();

  /// Full teardown; see file header for ordering. Idempotent.
  void stop();

  bool running() const { return running_.load(); }
  const ServerOptions& options() const { return options_; }

  /// The stats-request payload (exposed for tests and the daemon's exit
  /// summary): request counters, scheduler depths, durability, engine and
  /// synthesis cache totals, the active SIMD ISA, metrics registry, build
  /// info, fault spec. Rendered in server_stats.cpp, with build_metrics().
  common::json::Value build_stats() const;

  /// The metrics-request payload: the live registry as a JSON tree
  /// (format == "json") or as Prometheus text exposition wrapped in
  /// {"content_type", "body"} (format == "prometheus").
  common::json::Value build_metrics(const std::string& format) const;

  /// Tail-sampler counters (tests / exit summary).
  TailSamplerStats tail_stats() const { return tail_.stats(); }

  /// Journal / replay / watchdog / write-queue counters (tests and the
  /// stats payload's "durability" section).
  struct DurabilityStats {
    std::uint64_t replayed = 0;        // replies served from the replay cache
    std::uint64_t attached = 0;        // retries merged into in-flight jobs
    std::uint64_t recovered_jobs = 0;  // re-enqueued from the journal
    std::uint64_t reaped = 0;          // watchdog gave the slot up
    std::uint64_t duplicate_exec = 0;  // MUST stay 0: the chaos-gate counter
    std::uint64_t slow_disconnects = 0;
  };
  DurabilityStats durability_stats() const;
  WatchdogStats watchdog_stats() const;
  JournalStats journal_stats() const;

 private:
  struct ConnState;
  struct LiveConn {
    std::shared_ptr<ConnState> conn;
    std::thread thread;  // the connection's reader; it joins its own writer
  };
  using ReplySink = std::function<void(const common::json::Value&)>;

  void accept_loop();
  /// A connection's whole life on its reader thread: start the writer, read
  /// frames until EOF, join the writer, leave the live set.
  void serve_connection(std::uint64_t id, std::shared_ptr<ConnState> conn);
  void read_loop(const std::shared_ptr<ConnState>& conn);
  void handle_frame(const std::shared_ptr<ConnState>& conn,
                    const std::string& payload);
  void dispatch_job(const std::shared_ptr<ConnState>& conn,
                    RequestEnvelope env, bool recovered = false);
  void send_reply(const std::shared_ptr<ConnState>& conn,
                  const common::json::Value& reply);
  void writer_loop(const std::shared_ptr<ConnState>& conn);
  /// Counts one pending job on `conn` and returns the sink its reply goes
  /// to (queue the frame, close the pending job). Empty for no connection.
  ReplySink job_sink(const std::shared_ptr<ConnState>& conn);
  /// The one completion path, for the worker and the reaper alike: the
  /// first caller for a ticket delivers `reply` (through the ledger for
  /// keyed jobs) and returns true; a later caller does nothing, false.
  bool finish(const JobTicket& ticket, const common::json::Value& reply);
  void reap_job(const std::shared_ptr<JobTicket>& ticket);
  void replay_recovered_jobs();
  void exporter_loop();
  void write_metric_snapshots() const;
  /// Records one finished job into the rolling SLO instruments
  /// (serve.job.{latency,queue_wait,exec}_ns plus per-kind / per-tenant).
  void record_job_metrics(const char* kind, const std::string& tenant,
                          std::uint64_t latency_ns, std::uint64_t queue_wait_ns,
                          std::uint64_t exec_ns);

  ServerOptions options_;
  JobScheduler scheduler_;
  TailSampler tail_;
  std::unique_ptr<JobLedger> ledger_;   // created (and recovered) at start()
  std::unique_ptr<Watchdog> watchdog_;  // created at start()
  std::string boot_id_;                 // exec-id prefix, unique per boot
  std::atomic<std::uint64_t> exec_seq_{0};
  std::atomic<std::uint64_t> ticket_seq_{0};
  int listen_fd_ = -1;  // written only while no accept thread runs
  std::thread accept_thread_;
  std::thread exporter_thread_;
  std::atomic<bool> running_{false};

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::mutex exporter_mu_;
  std::condition_variable exporter_cv_;
  bool exporter_stop_ = false;

  std::mutex conns_mu_;
  std::condition_variable conns_cv_;  // signalled as connections end
  std::uint64_t conn_seq_ = 0;
  std::unordered_map<std::uint64_t, LiveConn> live_;
  // The last connection thread to end, joined by the next one to end (or by
  // stop()).
  std::thread ended_;

  std::chrono::steady_clock::time_point started_at_;

  // Lifetime request counters (stats payload).
  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ping{0};
    std::atomic<std::uint64_t> simulate{0};
    std::atomic<std::uint64_t> synthesize{0};
    std::atomic<std::uint64_t> stats{0};
    std::atomic<std::uint64_t> metrics{0};
    std::atomic<std::uint64_t> shutdown{0};
    std::atomic<std::uint64_t> bad_requests{0};
    std::atomic<std::uint64_t> oversized_frames{0};
    std::atomic<std::uint64_t> replies{0};
    std::atomic<std::uint64_t> write_failures{0};
    std::atomic<std::uint64_t> job_errors{0};
    std::atomic<std::uint64_t> recovered_jobs{0};
    std::atomic<std::uint64_t> reaped{0};
    std::atomic<std::uint64_t> slow_disconnects{0};
  };
  mutable Counters counters_;
  std::uint64_t warm_loaded_ = 0;  // cache entries loaded at start()
};

}  // namespace qc::serve
