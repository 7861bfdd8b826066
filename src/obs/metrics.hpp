// Process-wide metrics registry: named counters, gauges, and log2-bucketed
// histograms with lock-free hot-path updates.
//
// Instruments are created (and looked up) by name through counter() / gauge()
// / histogram(); creation takes a registry mutex, so hot paths bind a
// reference once (function-local static) and then update it with relaxed
// atomics only. A snapshot of every instrument is available programmatically
// (metrics_snapshot / metrics_json / metrics_prometheus) and, when
// QAPPROX_METRICS=<path> is set, written as JSON at process exit.
//
// Duration histograms are gated behind timing_enabled(): clock reads are the
// one instrumentation cost that is *not* free, so span/timer helpers only
// sample the clock when tracing or metrics export is armed.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qc::obs {

namespace detail {
extern std::atomic<bool> g_timing_enabled;
}  // namespace detail

/// True when duration histograms should sample the clock (QAPPROX_METRICS is
/// set, tracing is enabled, or set_timing_enabled(true) was called).
inline bool timing_enabled() {
  return detail::g_timing_enabled.load(std::memory_order_relaxed);
}
void set_timing_enabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written signed value (queue depths, sizes, config knobs).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram over unsigned integer samples (the unit — ns,
/// gates, picounits — is the metric name's contract). Bucket i counts samples
/// whose bit width is i, i.e. values in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit widths 0 (value 0) .. 64

  void record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(std::bit_width(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Find-or-create by name. References stay valid for the process lifetime;
/// bind them once per call site (function-local static) for lock-free updates.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Point-in-time copy of every registered instrument, sorted by name.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// (bit width, count) for non-empty buckets only.
    std::vector<std::pair<int, std::uint64_t>> buckets;
  };
  /// Rolling-window summary (see obs/rolling.hpp): live percentiles over the
  /// retention span plus the monotonic totals.
  struct Rolling {
    std::string name;
    std::uint64_t count = 0;      // samples inside the window
    std::uint64_t sum = 0;
    std::uint64_t total_count = 0;  // monotonic since registration
    std::uint64_t total_sum = 0;
    std::uint64_t window_ns = 0;
    std::size_t num_windows = 0;
    double covered_seconds = 0.0;
    double rate_per_second = 0.0;
    double p50 = 0.0, p90 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<Hist> histograms;
  std::vector<Rolling> rollings;
};

MetricsSnapshot metrics_snapshot();

/// One JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{...},"rolling":{...}}.
std::string metrics_json();

/// Prometheus text exposition (version 0.0.4) of the same snapshot. Names
/// are prefixed `qapprox_` and sanitized (non-[a-zA-Z0-9_] -> '_');
/// `.kind.<x>` / `.tenant.<x>` name segments become {kind="x"} /
/// {tenant="x"} labels. Counters export as `counter`, gauges as `gauge`,
/// histograms as count/sum `summary` pairs, and rolling histograms as
/// `summary` with live {quantile="0.5|0.9|0.95|0.99"} samples over their
/// window plus monotonic _sum/_count totals.
std::string metrics_prometheus();

/// Writes {"build": <build info>, "metrics": <metrics_json()>} to `path`.
/// Returns false (and logs an error) when the file cannot be written.
bool write_metrics_json(const std::string& path);

}  // namespace qc::obs
