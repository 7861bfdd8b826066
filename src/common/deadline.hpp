// Wall-clock deadlines and cooperative cancellation.
//
// The execution engine, all three synthesizers, and the simulators run
// open-ended heuristic work (A* expansion, depth growth, ALS sweeps, shot
// blocks). A Deadline bounds any of them: the work polls `expired()` at its
// natural granularity (per node / depth / sweep / shot) and, on expiry,
// returns whatever it has as a best-effort partial result flagged
// `timed_out` — it never throws from deep inside a computation.
//
// A Deadline combines an optional wall-clock limit with an optional
// CancelToken, so one poll covers both "out of time" and "caller gave up".
// Copies share the token (shared_ptr), so a request handed to a worker
// thread can be cancelled from the submitting thread.
//
// The process-wide default comes from QAPPROX_DEADLINE_MS (0 / unset =
// unbounded); per-request overrides ride on exec::RunRequest::deadline and
// the synthesis option structs. Polling an unbounded Deadline is one branch
// — no clock read, no atomic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace qc::common {

/// Cooperative cancellation flag, shared between the requester and the
/// worker. Default-constructed tokens carry no state: `cancelled()` is
/// always false and `request_cancel()` is a no-op, so APIs can take a token
/// by value without forcing every caller to allocate one.
class CancelToken {
 public:
  CancelToken() = default;

  /// Creates a token with live shared state.
  static CancelToken make();

  /// Creates a token with its own flag that additionally observes `parent`:
  /// cancelled() is true once either this token or the parent is cancelled,
  /// while request_cancel() only trips this token's own flag. The server's
  /// watchdog uses this to cancel one hung job without cancelling the
  /// scheduler-wide stop token it is linked to.
  static CancelToken linked(const CancelToken& parent);

  /// Requests cancellation; every copy of this token observes it (but never
  /// a linked parent). No-op on a stateless (default-constructed) token.
  void request_cancel() const noexcept;

  /// True once any copy (or a linked parent) called request_cancel().
  bool cancelled() const noexcept;

  /// True when this token carries live state (was created via make() or
  /// linked() from a live parent).
  bool valid() const noexcept {
    return static_cast<bool>(flag_) || static_cast<bool>(parent_);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
  std::shared_ptr<std::atomic<bool>> parent_;  // linked() only; read-only here
};

/// A point in time work must not run past, plus an optional CancelToken.
/// Default-constructed: unbounded and never cancelled (polls are one branch).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// Unbounded deadline (same as default construction; reads better at call
  /// sites that mean it).
  static Deadline never() { return {}; }

  /// Expires `ms` milliseconds from now. ms <= 0 is already expired; 1e12
  /// (about 31 years) or more, inf and NaN are never().
  static Deadline after_ms(double ms);

  /// Expires at an absolute steady-clock time point.
  static Deadline at(Clock::time_point tp);

  /// Process-default deadline from QAPPROX_DEADLINE_MS, milliseconds in
  /// [0, kMaxPeriodMs] (unbounded when the variable is unset, empty, zero, or
  /// malformed — malformed values warn).
  /// The environment is read once; the returned Deadline's countdown starts
  /// at this call.
  static Deadline from_env();

  /// Attaches a cancellation token (kept alongside any time limit).
  Deadline with_token(CancelToken token) const;

  /// Attaches a progress beacon: every expired() poll bumps the counter.
  /// The server's watchdog reads the beacon between scans to distinguish a
  /// job that is still cooperatively polling (slow but alive — its StopPoller
  /// reaches expired()) from one wedged in non-polling code, which is the
  /// only kind worth reaping.
  Deadline with_progress(
      std::shared_ptr<std::atomic<std::uint64_t>> beacon) const;

  const CancelToken& token() const { return token_; }

  /// True when this deadline can ever expire (has a time limit or a token).
  bool bounded() const { return at_.has_value() || token_.valid(); }

  /// One-branch fast path for unbounded deadlines; otherwise an atomic load
  /// (token) and/or a clock read.
  bool expired() const {
    if (progress_) progress_->fetch_add(1, std::memory_order_relaxed);
    if (token_.valid() && token_.cancelled()) return true;
    return at_.has_value() && Clock::now() >= *at_;
  }

  /// Milliseconds until expiry; +infinity when unbounded, <= 0 when expired.
  double remaining_ms() const;

  /// Throws TimeoutError("<what>: deadline expired") when expired. For call
  /// sites with no partial result to return; everything else polls
  /// expired() and flags `timed_out` instead.
  void raise_if_expired(const std::string& what) const;

 private:
  std::optional<Clock::time_point> at_;
  CancelToken token_;
  std::shared_ptr<std::atomic<std::uint64_t>> progress_;
};

/// Amortizing poll helper for per-iteration checks in hot loops: consults the
/// token every call but the clock only every `stride` calls, so polling a
/// time-limited deadline from a tight loop stays cheap. Once a check
/// triggers, the poller stays triggered.
class StopPoller {
 public:
  explicit StopPoller(const Deadline& deadline, std::uint32_t stride = 16)
      : deadline_(deadline), stride_(stride == 0 ? 1 : stride) {}

  /// True once the deadline has expired or the token was cancelled.
  bool should_stop() {
    if (triggered_) return true;
    if (!deadline_.bounded()) return false;
    if (++calls_ % stride_ != 0) return false;
    triggered_ = deadline_.expired();
    return triggered_;
  }

  bool triggered() const { return triggered_; }

 private:
  const Deadline& deadline_;
  std::uint32_t stride_;
  std::uint32_t calls_ = 0;
  bool triggered_ = false;
};

}  // namespace qc::common
