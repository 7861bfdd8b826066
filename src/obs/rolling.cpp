#include "obs/rolling.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace qc::obs {

// ---- bucket geometry -------------------------------------------------------

std::uint32_t RollingHistogram::bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  const int octave = std::bit_width(v) - 1;  // 0..63
  const std::uint64_t sub =
      octave >= kSubBits
          ? (v >> (octave - kSubBits)) & (kSub - 1)
          : (v << (kSubBits - octave)) & (kSub - 1);
  return 1u + static_cast<std::uint32_t>(octave) * kSub +
         static_cast<std::uint32_t>(sub);
}

std::uint64_t RollingHistogram::bucket_lower_bound(std::uint32_t index) {
  if (index == 0) return 0;
  const std::uint32_t octave = (index - 1) / kSub;
  const std::uint32_t sub = (index - 1) % kSub;
  const std::uint64_t base = 1ull << octave;
  // base * (1 + sub/kSub). Above kSubBits the shifted form avoids overflow;
  // below it the division moves to `sub` so small integers (queue depths,
  // counts) keep exact bounds instead of collapsing onto `base`.
  if (octave >= kSubBits) return base + ((base >> kSubBits) * sub);
  return base + (sub >> (kSubBits - octave));
}

std::uint64_t RollingHistogram::bucket_upper_bound(std::uint32_t index) {
  if (index == 0) return 1;
  if (index + 1 >= kNumBuckets) return ~0ull;
  const std::uint64_t next = bucket_lower_bound(index + 1);
  const std::uint64_t lo = bucket_lower_bound(index);
  return next > lo ? next : lo + 1;  // degenerate low buckets stay ordered
}

// ---- rolling histogram -----------------------------------------------------

RollingHistogram::RollingHistogram(std::uint64_t window_ns,
                                   std::size_t num_windows)
    : window_ns_(window_ns == 0 ? 1 : window_ns) {
  if (num_windows == 0) num_windows = 1;
  windows_.reserve(num_windows);
  for (std::size_t i = 0; i < num_windows; ++i)
    windows_.push_back(std::make_unique<Window>());
}

std::uint64_t RollingHistogram::clock_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

RollingHistogram::Window& RollingHistogram::rotate_to(std::uint64_t epoch) {
  Window& w = *windows_[epoch % windows_.size()];
  std::uint64_t tag = w.epoch.load(std::memory_order_acquire);
  while (tag != epoch) {
    if (tag == Window::kClaiming) {
      // Another recorder is zeroing the slot; the publish is nanoseconds away.
      std::this_thread::yield();
      tag = w.epoch.load(std::memory_order_acquire);
      continue;
    }
    if (tag > epoch) {
      // A racer with a marginally newer clock already rotated this slot one
      // full ring turn ahead (possible only at retention boundaries). Fold
      // the sample into the newer window rather than losing it.
      return w;
    }
    if (w.epoch.compare_exchange_weak(tag, Window::kClaiming,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      w.count.store(0, std::memory_order_relaxed);
      w.sum.store(0, std::memory_order_relaxed);
      for (auto& b : w.buckets) b.store(0, std::memory_order_relaxed);
      w.epoch.store(epoch, std::memory_order_release);
      return w;
    }
  }
  return w;
}

void RollingHistogram::record_at(std::uint64_t v, std::uint64_t now_ns) {
  Window& w = rotate_to(now_ns / window_ns_);
  w.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  w.count.fetch_add(1, std::memory_order_relaxed);
  w.sum.fetch_add(v, std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  total_sum_.fetch_add(v, std::memory_order_relaxed);
}

RollingSnapshot RollingHistogram::snapshot_at(std::uint64_t now_ns) const {
  RollingSnapshot snap;
  snap.window_ns = window_ns_;
  snap.num_windows = windows_.size();
  snap.total_count = total_count_.load(std::memory_order_relaxed);
  snap.total_sum = total_sum_.load(std::memory_order_relaxed);

  const std::uint64_t current_epoch = now_ns / window_ns_;
  const std::uint64_t oldest_epoch =
      current_epoch >= windows_.size() - 1 ? current_epoch - (windows_.size() - 1)
                                           : 0;
  std::array<std::uint64_t, kNumBuckets> merged{};
  std::uint64_t min_epoch_seen = ~0ull;
  for (const auto& wp : windows_) {
    const Window& w = *wp;
    const std::uint64_t tag = w.epoch.load(std::memory_order_acquire);
    if (tag == Window::kClaiming || tag < oldest_epoch || tag > current_epoch)
      continue;
    min_epoch_seen = std::min(min_epoch_seen, tag);
    snap.count += w.count.load(std::memory_order_relaxed);
    snap.sum += w.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < kNumBuckets; ++b)
      merged[static_cast<std::size_t>(b)] +=
          w.buckets[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
  if (min_epoch_seen != ~0ull) {
    const std::uint64_t span_start = min_epoch_seen * window_ns_;
    snap.covered_seconds =
        static_cast<double>(now_ns > span_start ? now_ns - span_start
                                                : window_ns_) /
        1e9;
  }
  for (std::uint32_t b = 0; b < kNumBuckets; ++b)
    if (merged[b] != 0) snap.buckets.emplace_back(b, merged[b]);
  return snap;
}

void RollingHistogram::reset() {
  for (auto& wp : windows_) {
    Window& w = *wp;
    w.epoch.store(Window::kClaiming, std::memory_order_relaxed);
    w.count.store(0, std::memory_order_relaxed);
    w.sum.store(0, std::memory_order_relaxed);
    for (auto& b : w.buckets) b.store(0, std::memory_order_relaxed);
    // Publish as "never used": any epoch below every live epoch works; 0 is
    // recycled on first touch because real epochs are billions by then.
    w.epoch.store(0, std::memory_order_release);
  }
  total_count_.store(0, std::memory_order_relaxed);
  total_sum_.store(0, std::memory_order_relaxed);
}

double RollingSnapshot::percentile(double p) const {
  if (count == 0 || buckets.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Nearest-rank walk over the merged buckets; report the bucket midpoint,
  // which bounds the error by half the ~9% bucket width.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.5));
  std::uint64_t cum = 0;
  for (const auto& [index, n] : buckets) {
    cum += n;
    if (cum >= rank) {
      const double lo =
          static_cast<double>(RollingHistogram::bucket_lower_bound(index));
      const double hi =
          static_cast<double>(RollingHistogram::bucket_upper_bound(index));
      return lo + (hi - lo) * 0.5;
    }
  }
  const std::uint32_t last = buckets.back().first;
  return static_cast<double>(RollingHistogram::bucket_upper_bound(last));
}

// ---- registry --------------------------------------------------------------

namespace {

/// Same leak-on-purpose shape as the scalar-instrument registry: references
/// must outlive static-duration worker pools.
struct RollingRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<RollingHistogram>, std::less<>> map;
};

RollingRegistry& rolling_registry() {
  static RollingRegistry* r = new RollingRegistry;
  return *r;
}

}  // namespace

RollingHistogram& rolling_histogram(std::string_view name,
                                    std::uint64_t window_ns,
                                    std::size_t num_windows) {
  RollingRegistry& r = rolling_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.map.find(name);
  if (it == r.map.end())
    it = r.map
             .emplace(std::string(name),
                      std::make_unique<RollingHistogram>(window_ns, num_windows))
             .first;
  return *it->second;
}

std::vector<std::pair<std::string, RollingSnapshot>> rolling_snapshots() {
  RollingRegistry& r = rolling_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, RollingSnapshot>> out;
  out.reserve(r.map.size());
  for (const auto& [name, h] : r.map) out.emplace_back(name, h->snapshot());
  return out;
}

void reset_rolling() {
  RollingRegistry& r = rolling_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, h] : r.map) h->reset();
}

}  // namespace qc::obs
