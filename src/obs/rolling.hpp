// Rolling-window histograms: percentiles over the last N seconds, not since
// process start.
//
// The PR 3 Histogram accumulates forever, which is the right shape for
// run-to-completion binaries but useless for a long-lived server: after an
// hour of traffic, "p99 since boot" hides the last minute's regression
// entirely. A RollingHistogram keeps a ring of fixed-span time windows; each
// window is its own bucketed histogram, a sample lands in the window its
// timestamp falls into, and a snapshot merges the windows that are still
// inside the retention span (windows * window_ns). Expired windows are
// recycled in place, so memory is constant.
//
// The record path is lock-free in the steady state: one epoch load, one
// bucket fetch_add, two totals fetch_adds. Window rotation (once per
// window span) is a CAS race — the winner zeroes the recycled slot and
// publishes the new epoch while losers spin for the handful of nanoseconds
// the reset takes; every sample is counted in exactly one window, which the
// concurrency tests assert by summing windows against the monotonic totals.
//
// Buckets are log-linear: 8 sub-buckets per power of two (resolution
// 2^(1/8) ~ 9%), so a percentile read off the merged buckets lands within
// ~5% of the sorted-vector oracle — tight enough to compare against
// client-side measured latencies, which the serve soak does.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace qc::obs {

/// Point-in-time merge of the live windows of one RollingHistogram.
struct RollingSnapshot {
  std::uint64_t count = 0;       // samples inside the retention span
  std::uint64_t sum = 0;         // their sum
  std::uint64_t total_count = 0; // monotonic, since construction
  std::uint64_t total_sum = 0;
  std::uint64_t window_ns = 0;   // span of one window
  std::size_t num_windows = 0;   // ring size
  double covered_seconds = 0.0;  // wall span the merged windows represent
  /// Merged per-bucket counts, (bucket index, count), non-empty only.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Quantile estimate (midpoint interpolation inside the winning bucket).
  /// p in [0, 1]; returns 0 when the snapshot is empty.
  double percentile(double p) const;
  /// count / covered_seconds (0 when nothing was recorded).
  double rate_per_second() const {
    return covered_seconds > 0.0 ? static_cast<double>(count) / covered_seconds
                                 : 0.0;
  }
  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

class RollingHistogram {
 public:
  /// Log-linear bucketing: 8 sub-buckets per octave. Bucket 0 holds the
  /// value 0; bucket 1 + (octave * 8 + sub) holds values whose top bit is
  /// `octave` with `sub` the next three bits.
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kNumBuckets = 1 + 64 * kSub;

  explicit RollingHistogram(std::uint64_t window_ns = 1'000'000'000ull,
                            std::size_t num_windows = 8);

  /// Records `v` into the window containing `now_ns` (defaults to the
  /// monotonic clock). Lock-free except during a window rotation.
  void record(std::uint64_t v) { record_at(v, clock_now_ns()); }
  void record_at(std::uint64_t v, std::uint64_t now_ns);

  /// Merges every window still inside the retention span ending at `now_ns`.
  RollingSnapshot snapshot() const { return snapshot_at(clock_now_ns()); }
  RollingSnapshot snapshot_at(std::uint64_t now_ns) const;

  /// Drops every sample (tests). Not linearizable against racing record()s.
  void reset();

  std::uint64_t window_ns() const { return window_ns_; }
  std::size_t num_windows() const { return windows_.size(); }

  static std::uint32_t bucket_index(std::uint64_t v);
  /// Inclusive lower bound of a bucket (0 for bucket 0).
  static std::uint64_t bucket_lower_bound(std::uint32_t index);
  /// Exclusive upper bound (== lower bound of the next bucket).
  static std::uint64_t bucket_upper_bound(std::uint32_t index);

 private:
  static std::uint64_t clock_now_ns();

  /// One ring slot. `epoch` names the time window the counts belong to;
  /// kClaiming marks a slot mid-recycle (recorders spin until published).
  /// Fresh slots carry epoch 0 — "never used" — the same convention reset()
  /// restores; kClaiming here would strand the first recorder in the
  /// waiting-for-publish spin.
  struct Window {
    static constexpr std::uint64_t kClaiming = ~0ull;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  };

  Window& rotate_to(std::uint64_t epoch);

  std::uint64_t window_ns_;
  std::vector<std::unique_ptr<Window>> windows_;
  std::atomic<std::uint64_t> total_count_{0};
  std::atomic<std::uint64_t> total_sum_{0};
};

/// Find-or-create by name (same contract as counter()/gauge()/histogram():
/// references are process-lifetime stable; bind once on hot paths). The
/// window geometry is fixed by the *first* creation; later lookups with
/// different geometry get the existing instrument.
RollingHistogram& rolling_histogram(std::string_view name,
                                    std::uint64_t window_ns = 1'000'000'000ull,
                                    std::size_t num_windows = 8);

/// Snapshots of every registered rolling histogram, sorted by name.
std::vector<std::pair<std::string, RollingSnapshot>> rolling_snapshots();

/// Zeroes every registered rolling histogram (tests).
void reset_rolling();

}  // namespace qc::obs
