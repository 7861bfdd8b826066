// ExecutionEngine: the unified, cached, batched execution path.
//
// Every consumer of the pipeline (experiment drivers, figure benchmarks,
// examples, tests) previously hand-rolled the same four steps — transpile,
// restrict the device, build a NoiseModel, simulate — so scatter studies
// re-transpiled identical circuits and rebuilt identical noise models dozens
// of times per figure. The engine owns session-level caches keyed by content
// fingerprints and computes each entry exactly once, even under concurrent
// batch execution:
//
//  * transpile cache  — (circuit, device, layout, level, router)
//                       -> TranspileResult
//  * noise-model cache — (device, noise options, active-physical subset)
//                       -> NoiseModel over the restricted device
//  * compiled cache   — (transpile key, model key, ideal?) ->
//                       sim::CompiledCircuit, the precompiled (and step-fused)
//                       program shared by every engine: state-vector, density
//                       matrix, and trajectories
//
// Each is a common::LruCache of kEngineCacheCap entries, so a long-lived
// server that sees an open-ended stream of distinct circuits holds bounded
// memory; an evicted entry is recomputed, bit for bit, on its next use.
//
// run_batch schedules requests over a ThreadPool. A trajectory run evolves
// all its shots as one shot tree (up to kMaxShotsPerTree shots per tree),
// each shot on its own counter-based RNG stream (common::derive_stream_seed),
// so results are bit-identical for every thread count, including
// QAPPROX_THREADS=1.
//
// The engine is fully instrumented through src/obs: every phase (transpile /
// noise model / compile / evolve) runs under a Span with a duration
// histogram, cache hits, misses and evictions feed the process-wide metrics
// registry (exec.cache.*) as well as the per-engine CacheStats, and each
// run's kernel dispatch counts are mirrored into sim.kernel.* counters. All
// of it is zero-overhead unless QAPPROX_TRACE / QAPPROX_METRICS are set.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/lru_cache.hpp"
#include "common/thread_pool.hpp"
#include "exec/request.hpp"
#include "noise/noise_model.hpp"
#include "sim/compiled.hpp"
#include "transpile/pipeline.hpp"

namespace qc::exec {

struct EngineOptions {
  /// 0: schedule on common::ThreadPool::global(); otherwise the engine owns a
  /// private pool of exactly this many workers (lets tests pin thread counts
  /// without environment variables). Values above kMaxThreadPoolSize are
  /// clamped with a warning.
  std::size_t num_threads = 0;
};

/// Shots per trajectory shot tree. A run evolves all its shots as one tree,
/// so every shared branch prefix is evolved once; only a run above this cap
/// splits, into ceil(shots / cap) trees over consecutive shot ranges run on
/// the pool. The cap bounds a tree's per-shot state (a 48-byte Rng plus 24
/// bytes of ids, picks and grouping scratch: about 4.7 MB at 2^16 shots).
inline constexpr std::size_t kMaxShotsPerTree = std::size_t{1} << 16;

/// Entry cap of each engine cache: twice the largest per-figure working set
/// measured (about 500 distinct transpiled and compiled programs on the TFIM
/// figures), so a figure's own reuse is never evicted.
inline constexpr std::size_t kEngineCacheCap = 1024;

class ExecutionEngine {
 public:
  explicit ExecutionEngine(EngineOptions options = {});
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Executes one request through the cached pipeline. The request's deadline
  /// (or the QAPPROX_DEADLINE_MS default) is polled during evolution; on
  /// expiry the result carries a best-effort partial distribution with
  /// status == RunStatus::TimedOut. Throws (e.g. SimulationError from the
  /// norm-drift guard) only for errors with no meaningful partial result.
  RunResult run(const RunRequest& request);

  /// Executes a batch concurrently; results are positionally aligned with
  /// `requests` and identical to running each request serially. A request
  /// that throws is captured as a RunStatus::Failed result (uniform
  /// placeholder distribution, error text in its RunRecord) — sibling
  /// requests, the pool, and the engine are unaffected.
  std::vector<RunResult> run_batch(const std::vector<RunRequest>& requests);

  /// Thread-safe point-in-time view of this engine's caches: the hit, miss
  /// and eviction counters plus the current entry count of each cache.
  /// (Process-wide aggregates over all engines live in the obs metrics
  /// registry under exec.cache.*.) Also publishes the numbers as process-wide
  /// gauges (exec.engine.cache.<cache>.{hits,misses,evictions,entries}) so
  /// they reach the QAPPROX_METRICS export and the serve `stats` reply; with
  /// several engines alive the gauges reflect the last snapshotted one
  /// (per-engine exactness stays in the returned struct).
  CacheSnapshot cache_stats_snapshot() const;

  /// Drops every cached entry and zeroes this engine's counters (the global
  /// exec.cache.* metrics are monotonic and unaffected).
  void clear_caches();

  /// Process-wide shared engine (used by the approx drivers and benchmarks
  /// unless a caller supplies its own).
  static ExecutionEngine& global();

 private:
  // Keys pair each 64-bit content fingerprint with cheap exact structural
  // discriminators (qubit/gate/edge counts), so a fingerprint collision would
  // additionally have to match structure before it could alias an entry.
  struct TranspileKey {
    std::uint64_t circuit_fp = 0;
    std::uint64_t device_fp = 0;
    std::uint64_t layout_fp = 0;  // 0 when no initial layout is forced
    int level = 0;
    int router = 0;
    int circuit_qubits = 0;
    std::uint64_t circuit_gates = 0;
    int device_qubits = 0;
    std::uint64_t device_edges = 0;
    auto operator<=>(const TranspileKey&) const = default;
  };
  struct ModelKey {
    std::uint64_t device_fp = 0;   // the *full* device
    std::uint64_t options_fp = 0;
    std::uint64_t subset_fp = 0;   // active-physical subset
    int device_qubits = 0;
    std::uint64_t device_edges = 0;
    std::uint64_t subset_size = 0;
    auto operator<=>(const ModelKey&) const = default;
  };
  struct CompiledKey {
    TranspileKey transpile;
    ModelKey model;
    int ideal = 0;  // 1: compiled against NoiseModel::ideal (model is blank)
    auto operator<=>(const CompiledKey&) const = default;
  };

  /// A cache slot computed exactly once via std::call_once; concurrent
  /// requesters of the same key block on the first computation instead of
  /// duplicating it.
  template <typename V>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const V> value;
  };

  template <typename K, typename V>
  using SlotCache = common::LruCache<K, std::shared_ptr<Slot<V>>>;

  /// Finds-or-inserts the slot for `key` in one atomic step (the cache
  /// tallies the hit or miss), then computes the value exactly once with
  /// `make`, outside the cache lock.
  template <typename K, typename V, typename Make>
  static std::shared_ptr<const V> get_or_compute(SlotCache<K, V>& cache, const K& key,
                                                 bool* was_hit, Make&& make);

  common::ThreadPool& pool();

  std::shared_ptr<const transpile::TranspileResult> transpile_cached(
      const RunRequest& request, bool* hit);
  std::shared_ptr<const noise::NoiseModel> model_cached(
      const RunRequest& request, const transpile::TranspileResult& tr, bool* hit);
  std::shared_ptr<const sim::CompiledCircuit> compiled_cached(
      const TranspileKey& tkey, const ModelKey& mkey,
      const transpile::TranspileResult& tr, const noise::NoiseModel& model,
      bool* hit);
  std::shared_ptr<const sim::CompiledCircuit> compiled_ideal_cached(
      const TranspileKey& tkey, const transpile::TranspileResult& tr, bool* hit);

  TranspileKey make_transpile_key(const RunRequest& request) const;
  ModelKey make_model_key(const RunRequest& request,
                          const transpile::TranspileResult& tr) const;

  std::vector<double> trajectory_probabilities(const sim::CompiledCircuit& compiled,
                                               std::size_t shots,
                                               std::uint64_t seed,
                                               const common::Deadline& deadline,
                                               const obs::TraceContext& parent,
                                               RunRecord& rec);

  EngineOptions options_;
  std::unique_ptr<common::ThreadPool> owned_pool_;

  SlotCache<TranspileKey, transpile::TranspileResult> transpile_cache_{
      kEngineCacheCap, "exec.cache.transpile"};
  SlotCache<ModelKey, noise::NoiseModel> model_cache_{kEngineCacheCap, "exec.cache.model"};
  SlotCache<CompiledKey, sim::CompiledCircuit> compiled_cache_{kEngineCacheCap,
                                                               "exec.cache.compiled"};
};

}  // namespace qc::exec
