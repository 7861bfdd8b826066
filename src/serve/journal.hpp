// Write-ahead job journal + bounded reply-replay cache for the serve layer.
//
// The exactly-once-reply contract across a crash (DESIGN.md §14) rests on
// three record types appended to a common::WalWriter-backed log:
//
//   {"t":"accepted","key":K,"request":{...}}   durable before admission acks
//   {"t":"started","key":K,"exec":E}           staged (observability only)
//   {"t":"done","key":K,"reply":{...}}         durable BEFORE the reply is
//                                              sent — the load-bearing order
//
// DONE-before-send is what makes replay safe: a crash after the fsync but
// before the client read the reply is recovered by replaying the cached
// reply; a crash before the fsync means the client never saw a reply, so
// re-executing is not a duplicate. The forbidden window — reply delivered,
// DONE lost — never exists.
//
// Recovery (open()): replay the log to its longest valid prefix, rebuild the
// replay cache from DONE records, collect ACCEPTED-without-DONE keys as
// incomplete jobs for the server to re-enqueue, then compact the log so it
// does not grow across restarts. Compaction keeps the most recent DONE
// records (up to the replay-cache cap) plus every incomplete ACCEPTED; a
// clean drain therefore leaves a DONE-only journal, which the CI chaos gate
// asserts by walking the frames with python's struct + zlib.
//
// Only idempotency-keyed jobs are journaled: a keyless job cannot be matched
// to a retry, so replaying it after a crash would execute work nobody can
// claim. Keys are tenant-scoped by the server before they reach this layer.
//
// JobLedger (bottom of this file) is the one owner of that bookkeeping for
// the server: it holds the journal, the replay cache and the table of
// requests waiting on each in-flight key, and exposes admission, completion
// and rejection as three operations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/lru_cache.hpp"
#include "common/wal.hpp"

namespace qc::serve {

/// Bounded LRU map from idempotency key to the reply that key produced:
/// get() bumps recency and counts a hit or miss, put() inserts or overwrites,
/// contains() neither counts nor bumps. Lives next to the journal because
/// recovery rebuilds it from DONE records; it also runs journal-less
/// (in-memory only) when QAPPROX_JOURNAL_DIR is unset. Eviction is
/// capacity-only: an evicted key's retry re-executes, so the cap trades
/// memory against the retry horizon (ServerOptions::replay_cache_cap,
/// default 4096 — size chaos loads under it).
using ReplayCache = common::LruCache<std::string, common::json::Value>;

/// An ACCEPTED-without-DONE job found at recovery: the server re-enqueues it.
struct RecoveredJob {
  std::string key;
  common::json::Value request;  // the original request envelope object
};

struct JournalStats {
  bool enabled = false;
  std::string path;
  std::uint64_t accepted = 0;   // records appended this boot
  std::uint64_t started = 0;
  std::uint64_t done = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t recovered_replies = 0;     // DONE records replayed at open
  std::uint64_t recovered_incomplete = 0;  // jobs re-enqueued at open
  std::uint64_t torn_bytes = 0;            // tail discarded at open
  std::uint64_t compactions = 0;
  double recovery_ms = 0.0;  // wall time of the open() replay+compact
};

/// The journal. Disabled (all record_* are no-ops) when constructed with an
/// empty directory. One instance per server; thread-safe.
class JobJournal {
 public:
  /// `dir` == "": journaling off. Otherwise opens (creating) `dir/jobs.wal`,
  /// recovers, fills `replay` with recovered replies, and compacts. Throws
  /// common::Error when the directory cannot be used.
  JobJournal(const std::string& dir, ReplayCache* replay);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  bool enabled() const { return writer_ != nullptr; }

  /// Durable: returns only once the ACCEPTED record is on disk.
  void record_accepted(const std::string& key,
                       const common::json::Value& request);

  /// Staged (group-committed with the next durable append): STARTED is
  /// observability — duplicate-execution forensics — not correctness.
  void record_started(const std::string& key, const std::string& exec_id);

  /// Durable: MUST complete before the reply is sent (see file header).
  void record_done(const std::string& key, const common::json::Value& reply);

  /// Staged: closes an ACCEPTED key whose job the scheduler rejected — the
  /// client got an "overloaded" error and nothing executed. Recovery treats
  /// it like DONE minus the replay-cache entry; losing the record to a crash
  /// merely re-enqueues a job that never ran (one execution, zero duplicated
  /// side effects), so group commit is enough.
  void record_rejected(const std::string& key);

  /// Jobs to re-enqueue, in journal order. Filled by the constructor; the
  /// server consumes (moves from) it once at start().
  std::vector<RecoveredJob>& recovered() { return recovered_; }

  /// Rewrites the log to DONE records (newest `replay_cap` per the cache
  /// handed to the constructor) plus still-incomplete ACCEPTED records.
  /// Called at clean shutdown after the scheduler drained; safe to call with
  /// appends quiesced only.
  void compact();

  JournalStats stats() const;

 private:
  void append_durable(const std::string& payload);
  void append_staged(const std::string& payload);

  std::string path_;
  std::unique_ptr<common::WalWriter> writer_;
  ReplayCache* replay_ = nullptr;

  mutable std::mutex mu_;  // guards writer_ swap during compact + counters
  // Keys accepted (journaled) but not yet done, with their request payloads —
  // what a compaction must preserve.
  std::unordered_map<std::string, std::string> incomplete_;
  std::vector<RecoveredJob> recovered_;
  JournalStats stats_;
};

/// One request waiting on a keyed job's reply: the id to stamp into its copy
/// and an opaque sink that takes the copy. An empty sink drops it (a
/// journal-recovered job has no client; its reply lives in the replay cache).
struct ReplyWaiter {
  common::json::Value request_id;
  std::function<void(const common::json::Value& reply)> sink;
};

/// Exactly-once replies for idempotency-keyed jobs. Owns the journal, the
/// replay cache and the in-flight waiter table, so no caller coordinates
/// them. Thread-safe; one instance per server.
class JobLedger {
 public:
  enum class Admission {
    kPrimary,   // first request for the key: the caller must execute it
    kAttached,  // the key is in flight: the waiter gets that execution's reply
    kReplayed,  // the key completed: the waiter already got the cached reply
  };

  /// Opens (and recovers) the journal in `journal_dir` ("" = journaling off,
  /// replay cache in memory only). Throws common::Error like JobJournal.
  JobLedger(const std::string& journal_dir, std::size_t replay_cap);

  /// Registers `waiter` on `key`. A completed key's cached reply goes to the
  /// waiter at once, re-stamped with its request id and marked replayed; an
  /// in-flight key queues the waiter behind the one execution. The replay
  /// lookup and the table update share one lock with complete()'s pop, so a
  /// key is always either in flight or visible in the cache.
  Admission admit(const std::string& key, ReplyWaiter waiter);

  /// A primary's execution finished: counts a duplicate execution if the key
  /// had already completed, makes the DONE record durable, caches the reply,
  /// and only then hands every waiter its copy — the first (the primary) as
  /// is, the attached retries marked replayed.
  void complete(const std::string& key, const common::json::Value& reply);

  /// The primary was never executed (the scheduler refused it): records the
  /// rejection so recovery does not re-enqueue the key, and hands `reply` to
  /// every waiter, each re-stamped with its own request id.
  void reject(const std::string& key, const common::json::Value& reply);

  JobJournal& journal() { return journal_; }
  const ReplayCache& replay() const { return replay_; }

  std::uint64_t replayed() const { return replayed_.load(); }
  std::uint64_t attached() const { return attached_.load(); }
  /// Keys that completed twice. The invariant the journal exists to uphold:
  /// the chaos gate requires 0.
  std::uint64_t duplicate_exec() const { return duplicate_exec_.load(); }

 private:
  /// Pops `key`'s waiters and hands each its re-stamped copy of `reply`.
  void deliver(const std::string& key, const common::json::Value& reply,
               bool mark_retries);

  ReplayCache replay_;
  JobJournal journal_;  // after replay_: recovery refills the cache

  std::mutex mu_;
  // In-flight keys -> every request waiting on the result, primary first.
  std::unordered_map<std::string, std::vector<ReplyWaiter>> inflight_;

  std::atomic<std::uint64_t> replayed_{0};
  std::atomic<std::uint64_t> attached_{0};
  std::atomic<std::uint64_t> duplicate_exec_{0};
};

}  // namespace qc::serve
