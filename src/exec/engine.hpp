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
//  * gate-matrix cache — (gate kind, params) -> linalg::Matrix
//
// run_batch schedules requests over a ThreadPool; the trajectory engine
// additionally fans shots out in fixed-size blocks with counter-based
// per-shot RNG streams (common::derive_stream_seed), so results are
// bit-identical for every thread count, including QAPPROX_THREADS=1.
//
// The engine is fully instrumented through src/obs: every phase (transpile /
// noise model / compile / evolve) runs under a Span with a duration
// histogram, cache hits and misses feed the process-wide metrics registry
// (exec.cache.*) as well as the per-engine CacheStats, and each run's kernel
// dispatch counts are mirrored into sim.kernel.* counters. All of it is
// zero-overhead unless QAPPROX_TRACE / QAPPROX_METRICS are set.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
#include "exec/request.hpp"
#include "linalg/matrix.hpp"
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
  /// Shots per trajectory work block. The partition is fixed by this value,
  /// not by the thread count, so per-block counts merge to identical totals
  /// on any pool size. Must be positive (ContractError otherwise); values
  /// above kMaxTrajectoryBlock are clamped with a warning.
  std::size_t trajectory_block = 128;
};

/// Ceiling on EngineOptions::trajectory_block: a block far beyond any real
/// shot budget defeats parallelism without changing results, so it is a
/// config mistake, not a tuning choice.
inline constexpr std::size_t kMaxTrajectoryBlock = 1u << 20;

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

  /// Snapshot of this engine's cache counters. Process-wide aggregates (all
  /// engines) live in the obs metrics registry under exec.cache.*.
  CacheStats cache_stats() const;

  /// Thread-safe point-in-time view of this engine's caches: the hit/miss
  /// counters plus the current entry count of each cache. Also publishes the
  /// numbers as process-wide gauges (exec.engine.cache.<cache>.{hits,misses,
  /// entries}) so they reach the QAPPROX_METRICS export and the serve
  /// `stats` reply; with several engines alive the gauges reflect the last
  /// snapshotted one (per-engine exactness stays in the returned struct).
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
  struct MatrixKey {
    int kind = 0;
    std::vector<std::uint64_t> params;  // bit patterns
    auto operator<=>(const MatrixKey&) const = default;
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
  struct OnceCache {
    std::map<K, std::shared_ptr<Slot<V>>> entries;
  };

  /// Which session cache an event belongs to, for counter routing.
  enum class CacheId { Transpile, Model, Compiled, Matrix };

  /// Finds-or-creates the slot for `key` (counting a hit or a miss against
  /// both this engine's CacheStats and the process-wide metrics registry),
  /// then computes the value exactly once with `make`.
  template <typename K, typename V, typename Make>
  std::shared_ptr<const V> get_or_compute(OnceCache<K, V>& cache, CacheId id,
                                          const K& key, bool* was_hit,
                                          Make&& make);

  /// Tallies one lookup. Requires mutex_ to be held.
  void count_cache_event(CacheId id, bool hit);

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
  linalg::Matrix gate_matrix(const ir::Gate& gate);

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

  mutable std::mutex mutex_;  // guards the four caches and stats_
  CacheStats stats_;
  OnceCache<TranspileKey, transpile::TranspileResult> transpile_cache_;
  OnceCache<ModelKey, noise::NoiseModel> model_cache_;
  OnceCache<CompiledKey, sim::CompiledCircuit> compiled_cache_;
  OnceCache<MatrixKey, linalg::Matrix> matrix_cache_;
};

}  // namespace qc::exec
