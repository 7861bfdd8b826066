// LruCache: the one bounded cache of the process.
//
// Every memo table (the execution engine's transpile / noise-model /
// compiled caches, the synthesis result cache, the serve layer's reply-replay
// cache) is an instance of this map: an entry cap fixed at construction,
// least-recently-used eviction, and one mutex guarding the map, the recency
// list and the tallies. Values are copied out, so the lock is never held
// while a caller computes; a cache of expensive values stores a cheap handle
// (the engine's call_once slots) and fills it outside the lock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace qc::common {

/// Point-in-time tallies of one LruCache. Hits, misses and evictions count
/// from construction or the last reset().
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t cap = 0;
};

template <typename K, typename V>
class LruCache {
 public:
  /// `cap` entries at most (0 is taken as 1). With a non-empty
  /// `metric_prefix` P, every counted lookup and eviction also bumps the
  /// process-wide counters P.hits, P.misses and P.evictions.
  explicit LruCache(std::size_t cap, std::string_view metric_prefix = {})
      : cap_(std::max<std::size_t>(cap, 1)) {
    if (metric_prefix.empty()) return;
    const std::string p(metric_prefix);
    hits_counter_ = &obs::counter(p + ".hits");
    misses_counter_ = &obs::counter(p + ".misses");
    evictions_counter_ = &obs::counter(p + ".evictions");
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value for `key`, made the most recent; nullopt on a miss. Counts a
  /// hit or a miss.
  std::optional<V> get(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    count(it != map_.end());
    if (it == map_.end()) return std::nullopt;
    touch(it->second);
    return it->second.value;
  }

  /// The value for `key` and whether it was a hit, inserting `make()` on a
  /// miss (evicting the coldest entry over the cap). The find and the insert
  /// are one atomic step, so racing callers of one key all get the value
  /// the first of them inserted. `make` runs under the lock: keep it cheap.
  template <typename Make>
  std::pair<V, bool> find_or_insert(const K& key, Make&& make) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    count(it != map_.end());
    if (it != map_.end()) {
      touch(it->second);
      return {it->second.value, true};
    }
    it = insert(key, make());
    return {it->second.value, false};
  }

  /// Inserts or overwrites `key` as the most recent entry, evicting the
  /// coldest entry over the cap. Not a lookup: counts neither hit nor miss.
  void put(const K& key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      insert(key, std::move(value));
      return;
    }
    it->second.value = std::move(value);
    touch(it->second);
  }

  /// Membership without a tally or a change of recency.
  bool contains(const K& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.contains(key);
  }

  /// Every entry, coldest first: put()ting a dump back in order into an
  /// empty cache restores the same recency.
  std::vector<std::pair<K, V>> dump() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<K, V>> out;
    out.reserve(map_.size());
    for (const K* key : order_) out.emplace_back(*key, map_.find(*key)->second.value);
    return out;
  }

  /// Drops every entry; the tallies keep counting.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    order_.clear();
  }

  /// Drops every entry and zeroes the tallies (the process-wide counters
  /// are monotonic and unaffected).
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    order_.clear();
    hits_ = misses_ = evictions_ = 0;
  }

  LruStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return LruStats{hits_, misses_, evictions_, map_.size(), cap_};
  }

  std::size_t size() const { return stats().entries; }
  std::size_t cap() const { return cap_; }
  std::uint64_t hits() const { return stats().hits; }
  std::uint64_t misses() const { return stats().misses; }
  std::uint64_t evictions() const { return stats().evictions; }

 private:
  // Recency runs coldest (front) to hottest (back) over pointers to the
  // map's keys, which std::map keeps at a fixed address.
  using Order = std::list<const K*>;
  struct Entry {
    V value;
    typename Order::iterator pos;
  };
  using Map = std::map<K, Entry>;

  void touch(Entry& e) { order_.splice(order_.end(), order_, e.pos); }

  void count(bool hit) {
    ++(hit ? hits_ : misses_);
    if (obs::Counter* c = hit ? hits_counter_ : misses_counter_) c->add();
  }

  typename Map::iterator insert(const K& key, V value) {
    if (map_.size() >= cap_) {
      const auto victim = map_.find(*order_.front());
      order_.pop_front();
      map_.erase(victim);
      ++evictions_;
      if (evictions_counter_ != nullptr) evictions_counter_->add();
    }
    const auto it = map_.emplace(key, Entry{std::move(value), {}}).first;
    it->second.pos = order_.insert(order_.end(), &it->first);
    return it;
  }

  const std::size_t cap_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  mutable std::mutex mu_;
  Map map_;
  Order order_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace qc::common
