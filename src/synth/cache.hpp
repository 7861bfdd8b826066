// Process-wide synthesis result cache.
//
// Synthesis is deterministic: a (target, structure space, options, seed)
// tuple always produces the same result, so studies that synthesize the same
// block repeatedly — the CX-error sweeps re-run every noise level against one
// circuit, the TFIM studies revisit identical timestep blocks — can reuse the
// first run's output. Keys follow the execution-engine idiom: a 64-bit
// content fingerprint of the target (and, for QFactor, the seed structure)
// paired with *exact* structural discriminators (dimensions, edge lists,
// bit-patterns of every numeric option, the seed, and the gradient mode), so
// a fingerprint collision would still have to match every discriminator to
// alias. Deadlines and callbacks are deliberately not keyed: deadlines don't
// change what a completed search computes (timed-out results are never
// stored), and callbacks are observers — the full intermediate stream is
// recorded with each entry and replayed into the caller's callback on a hit.
//
// Each result kind is a common::LruCache of 128 entries; the per-call
// `use_cache` options (default on) bypass it for reference runs.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "synth/qfactor.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"

namespace qc::synth {

struct SynthCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t cap = 0;
};

/// Lifetime totals (also exported as synth.cache.{hits,misses,evictions}
/// counters) plus the current entries and the entry cap, each summed over
/// the three result kinds.
SynthCacheStats synth_cache_stats();

/// Drops every cached entry (tests, benchmarks). Stats counters are kept.
void clear_synth_cache();

// ---------------------------------------------------------------------------
// Keys and entry types; used by the synthesizers themselves.

struct QSearchCacheKey {
  std::uint64_t target_fp = 0;
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::vector<std::pair<int, int>> edges;
  // Bit patterns of the double-valued options (exact, no epsilon aliasing).
  std::uint64_t success_threshold_bits = 0;
  std::uint64_t depth_weight_bits = 0;
  std::uint64_t opt_tolerance_bits = 0;
  int max_cnots = 0;
  int max_nodes = 0;
  int opt_max_iterations = 0;
  int opt_lbfgs_memory = 0;
  int restarts_per_node = 0;
  std::uint64_t seed = 0;
  auto operator<=>(const QSearchCacheKey&) const = default;
};

struct QFastCacheKey {
  std::uint64_t target_fp = 0;
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::vector<std::pair<int, int>> edges;
  std::uint64_t success_threshold_bits = 0;
  std::uint64_t opt_tolerance_bits = 0;
  int max_blocks = 0;
  int opt_max_iterations = 0;
  int opt_lbfgs_memory = 0;
  int restarts_per_depth = 0;
  bool emit_coarse_passes = false;
  std::uint64_t seed = 0;
  auto operator<=>(const QFastCacheKey&) const = default;
};

struct QFactorCacheKey {
  std::uint64_t target_fp = 0;
  std::uint64_t structure_fp = 0;  // circuit fingerprint: gates AND angles
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::uint64_t tolerance_bits = 0;
  std::uint64_t success_threshold_bits = 0;
  int max_sweeps = 0;
  auto operator<=>(const QFactorCacheKey&) const = default;
};

/// A completed search plus the intermediate-callback stream it emitted.
struct CachedQSearch {
  QSearchResult result;
  std::vector<ApproxCircuit> stream;
};

struct CachedQFast {
  QFastResult result;
  std::vector<ApproxCircuit> stream;
};

std::optional<CachedQSearch> synth_cache_lookup(const QSearchCacheKey& key);
std::optional<CachedQFast> synth_cache_lookup(const QFastCacheKey& key);
std::optional<QFactorResult> synth_cache_lookup(const QFactorCacheKey& key);

void synth_cache_store(const QSearchCacheKey& key, CachedQSearch entry);
void synth_cache_store(const QFastCacheKey& key, CachedQFast entry);
void synth_cache_store(const QFactorCacheKey& key, QFactorResult entry);

// Full-cache enumeration, coldest first, for the disk snapshots in
// synth/persist.hpp: re-storing a dump in order reproduces the same recency.
// Each call copies the entries out under the cache lock.
std::vector<std::pair<QSearchCacheKey, CachedQSearch>> synth_cache_dump_qsearch();
std::vector<std::pair<QFastCacheKey, CachedQFast>> synth_cache_dump_qfast();
std::vector<std::pair<QFactorCacheKey, QFactorResult>> synth_cache_dump_qfactor();

}  // namespace qc::synth
