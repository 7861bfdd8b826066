// Process-wide synthesis result cache: one key, one cached call.
//
// Synthesis is deterministic: a (target, structure space, options, seed)
// tuple always produces the same result, so studies that synthesize the same
// block repeatedly — the CX-error sweeps re-run every noise level against one
// circuit, the TFIM studies revisit identical timestep blocks — can reuse the
// first run's output. QSearch, QFast and QFactor key their calls with one
// SynthKey, following the execution-engine idiom: a 64-bit content
// fingerprint of the target (and, for QFactor, the seed structure) paired
// with *exact* discriminators (the tool, dimensions, the expansion edges, the
// bit patterns of every result-affecting option in the tool's fixed order,
// and the seed), so a fingerprint collision would still have to match every
// discriminator to alias. Deadlines, callbacks, `parallel_children` and the
// pool are deliberately not keyed: deadlines don't change what a completed
// search computes (timed-out results are never stored), the parallel
// frontier is bit-identical to the serial one, and callbacks are observers —
// the full intermediate stream is recorded with each entry and replayed into
// the caller's callback on a hit.
//
// Each result type is a common::LruCache of 128 entries. Every call goes
// through it; reference runs and benchmarks that need a fresh search call
// clear_synth_cache() first.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/lru_cache.hpp"
#include "synth/qfactor.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"

namespace qc::synth {

enum class SynthTool : std::uint8_t { QSearch, QFast, QFactor };

inline constexpr SynthTool kSynthTools[] = {SynthTool::QSearch, SynthTool::QFast,
                                            SynthTool::QFactor};

/// What identifies one synthesis problem, for every tool.
struct SynthKey {
  SynthTool tool = SynthTool::QSearch;
  std::uint64_t target_fp = 0;
  std::uint64_t structure_fp = 0;  // QFactor's seed circuit, gates AND angles; else 0
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::vector<std::pair<int, int>> edges;  // expansion edges; empty for QFactor
  std::vector<std::uint64_t> options;      // see key_options
  std::uint64_t seed = 0;
  auto operator<=>(const SynthKey&) const = default;
};

/// SynthKey::options from a tool's result-affecting options, in the order
/// given: a double as its exact bit pattern (no epsilon aliasing), an integer
/// or bool widened.
template <class... Ts>
std::vector<std::uint64_t> key_options(Ts... values) {
  auto bits = []<class T>(T v) -> std::uint64_t {
    if constexpr (std::is_floating_point_v<T>)
      return std::bit_cast<std::uint64_t>(static_cast<double>(v));
    else
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  };
  return {bits(values)...};
}

/// A completed call plus the intermediate stream it emitted (QFactor reports
/// none, so its stream stays empty).
template <class Result>
struct Cached {
  Result result;
  std::vector<ApproxCircuit> stream;
};

/// The cache of one result type. All three bump the shared
/// synth.cache.{hits,misses,evictions} counters.
template <class Result>
common::LruCache<SynthKey, Cached<Result>>& synth_cache() {
  static common::LruCache<SynthKey, Cached<Result>> cache(128, "synth.cache");
  return cache;
}

/// Calls f(std::type_identity<R>{}) with the result type R that `tool`
/// caches.
template <class F>
decltype(auto) with_result_type(SynthTool tool, F&& f) {
  switch (tool) {
    case SynthTool::QSearch:
      return f(std::type_identity<QSearchResult>{});
    case SynthTool::QFast:
      return f(std::type_identity<QFastResult>{});
    case SynthTool::QFactor:
      break;
  }
  return f(std::type_identity<QFactorResult>{});
}

/// The one cached call. `run(stream)` runs the tool, appending every
/// intermediate it reports to `stream`. A hit replays the recorded stream
/// into `replay` and returns the stored result, and a miss runs and stores
/// the result with its stream — unless the run timed out: a truncated search is not *the* result for its
/// key. Lookups copy entries out, so no lock is held while a tool runs.
template <class Result, class Run>
Result cached_synthesis(const SynthKey& key, const IntermediateCallback& replay, Run&& run) {
  common::LruCache<SynthKey, Cached<Result>>& cache = synth_cache<Result>();
  if (std::optional<Cached<Result>> hit = cache.get(key)) {
    if (replay)
      for (const ApproxCircuit& record : hit->stream) replay(record);
    return std::move(hit->result);
  }
  std::vector<ApproxCircuit> stream;
  Result result = run(stream);
  if (!result.timed_out) cache.put(key, Cached<Result>{result, std::move(stream)});
  return result;
}

using SynthCacheStats = common::LruStats;

/// Lifetime totals (also exported as synth.cache.{hits,misses,evictions}
/// counters) plus the current entries and the entry cap, each summed over
/// the three result types.
SynthCacheStats synth_cache_stats();

/// Drops every cached entry (tests, benchmarks). Stats counters are kept.
void clear_synth_cache();

}  // namespace qc::synth
