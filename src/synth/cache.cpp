#include "synth/cache.hpp"

#include "common/lru_cache.hpp"

namespace qc::synth {

namespace {

// One LRU map per result type, each capped by entry count; lookups copy
// entries out, so no lock is held while a search runs. All three bump the
// shared synth.cache.{hits,misses,evictions} counters.
constexpr std::size_t kMaxEntriesPerKind = 128;

common::LruCache<QSearchCacheKey, CachedQSearch>& qsearch_cache() {
  static common::LruCache<QSearchCacheKey, CachedQSearch> c(kMaxEntriesPerKind, "synth.cache");
  return c;
}

common::LruCache<QFastCacheKey, CachedQFast>& qfast_cache() {
  static common::LruCache<QFastCacheKey, CachedQFast> c(kMaxEntriesPerKind, "synth.cache");
  return c;
}

common::LruCache<QFactorCacheKey, QFactorResult>& qfactor_cache() {
  static common::LruCache<QFactorCacheKey, QFactorResult> c(kMaxEntriesPerKind, "synth.cache");
  return c;
}

}  // namespace

SynthCacheStats synth_cache_stats() {
  SynthCacheStats out;
  for (const common::LruStats& s :
       {qsearch_cache().stats(), qfast_cache().stats(), qfactor_cache().stats()}) {
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.entries += s.entries;
    out.cap += s.cap;
  }
  return out;
}

void clear_synth_cache() {
  qsearch_cache().clear();
  qfast_cache().clear();
  qfactor_cache().clear();
}

std::optional<CachedQSearch> synth_cache_lookup(const QSearchCacheKey& key) {
  return qsearch_cache().get(key);
}

std::optional<CachedQFast> synth_cache_lookup(const QFastCacheKey& key) {
  return qfast_cache().get(key);
}

std::optional<QFactorResult> synth_cache_lookup(const QFactorCacheKey& key) {
  return qfactor_cache().get(key);
}

void synth_cache_store(const QSearchCacheKey& key, CachedQSearch entry) {
  qsearch_cache().put(key, std::move(entry));
}

void synth_cache_store(const QFastCacheKey& key, CachedQFast entry) {
  qfast_cache().put(key, std::move(entry));
}

void synth_cache_store(const QFactorCacheKey& key, QFactorResult entry) {
  qfactor_cache().put(key, std::move(entry));
}

std::vector<std::pair<QSearchCacheKey, CachedQSearch>> synth_cache_dump_qsearch() {
  return qsearch_cache().dump();
}

std::vector<std::pair<QFastCacheKey, CachedQFast>> synth_cache_dump_qfast() {
  return qfast_cache().dump();
}

std::vector<std::pair<QFactorCacheKey, QFactorResult>> synth_cache_dump_qfactor() {
  return qfactor_cache().dump();
}

}  // namespace qc::synth
