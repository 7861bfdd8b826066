// Execution requests and run records.
//
// A RunRequest pairs a logical circuit with an ExecutionConfig describing how
// it reaches "hardware" (device, transpilation level, noise options, engine
// choice, shots, seed). The ExecutionEngine turns each request into a
// RunResult: the outcome distribution in the circuit's own virtual bit order
// plus a RunRecord documenting what actually ran — transpiled gate counts,
// layout, engine, cache behaviour, wall time — so experiment drivers and
// benchmark binaries can report provenance without re-deriving it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "ir/circuit.hpp"
#include "linalg/kernels.hpp"
#include "noise/device.hpp"
#include "noise/noise_model.hpp"
#include "obs/trace.hpp"
#include "transpile/pipeline.hpp"

namespace qc::exec {

/// How a circuit reaches "hardware".
struct ExecutionConfig {
  noise::DeviceProperties device;
  noise::NoiseModelOptions noise_options;  // set hardware extras / sweeps here
  /// Skip all noise (the "noise free reference" runs).
  bool ideal = false;
  int optimization_level = 1;
  std::optional<transpile::Layout> initial_layout;
  /// SWAP insertion strategy (see bench_ablation_routers).
  transpile::TranspileOptions::Router router =
      transpile::TranspileOptions::Router::Greedy;
  /// true: shot-sampled trajectory engine (hardware realism); false: exact
  /// density-matrix engine (noise-model simulation).
  bool use_trajectories = false;
  std::size_t shots = 8192;
  std::uint64_t seed = 11;

  /// Simulator run under a catalog device's noise model (the paper's
  /// "<device> noise model" setting: optimization level 1, DM engine).
  static ExecutionConfig simulator(const noise::DeviceProperties& device);
  /// Hardware-mode run (the paper's "<device> physical machine" setting:
  /// optimization level 3, trajectory engine, surplus noise on).
  static ExecutionConfig hardware(const noise::DeviceProperties& device);
  /// Noise-free reference execution on the same device topology.
  static ExecutionConfig noise_free(const noise::DeviceProperties& device);

  /// Transpile options implied by this config.
  transpile::TranspileOptions transpile_options() const;
};

/// One circuit execution job.
struct RunRequest {
  ir::QuantumCircuit circuit;
  ExecutionConfig config;
  /// Per-request execution bound (time limit and/or cancel token). Unbounded
  /// requests fall back to the process default from QAPPROX_DEADLINE_MS.
  common::Deadline deadline = {};
  /// Fault-injection stream id (QAPPROX_FAULTS); the sentinel means "use the
  /// batch index". Batch drivers get per-slot variety for free, but a
  /// multiplexer submitting single-element batches (the serve layer) must
  /// set a per-job stream — otherwise every job shares stream 0 and a
  /// probabilistic fault spec degenerates to all-or-nothing.
  static constexpr std::uint64_t kFaultStreamFromBatchIndex = ~0ull;
  std::uint64_t fault_stream = kFaultStreamFromBatchIndex;
  /// Trace parentage: when valid, the engine's exec.run span (and every
  /// phase span under it, down to trajectory blocks on pool threads) joins
  /// the caller's trace instead of starting an orphan — this is how a served
  /// job's admission, queue-wait, and engine phases export as one connected
  /// trace. Invalid (the default) keeps the pre-existing unparented spans.
  obs::TraceContext trace_parent = {};
};

/// How a request finished. TimedOut results still carry a best-effort
/// distribution (completed trajectory shots, or the partially evolved exact
/// state); Failed results carry a uniform placeholder plus the error text in
/// RunRecord::error.
enum class RunStatus { Ok = 0, TimedOut = 1, Failed = 2 };

const char* run_status_name(RunStatus status);

/// Provenance of one execution: what the transpiler produced, which engine
/// ran it, and which session caches were warm.
struct RunRecord {
  std::string engine;  // "ideal", "dm:<device>", "traj:<device>"
  std::size_t transpiled_cx = 0;
  std::size_t transpiled_depth = 0;
  std::size_t added_swaps = 0;
  transpile::Layout initial_layout;     // virtual -> physical
  std::vector<int> active_physical;     // physical ids backing compact wires
  std::size_t shots = 0;                // 0 for exact engines
  /// Steps in the compiled program actually executed. Fusion merges adjacent
  /// noise-free gates, so this is usually below the transpiled gate count:
  /// compiled_steps == source_gates - fused_gates.
  std::size_t compiled_steps = 0;
  /// Unitary gates in the transpiled circuit before fusion.
  std::size_t source_gates = 0;
  /// Source gates merged into a neighbouring step by k<=4 fusion.
  std::size_t fused_gates = 0;
  /// Fused-block tally by final arity: index k in [1, 4] counts compiled
  /// steps on k qubits built from >= 2 source gates (index 0 unused).
  std::array<std::size_t, 5> fused_blocks_by_k{};
  /// Which specialized gate kernels the program's step unitaries dispatch
  /// to, one count per step. Noise operators and per-shot applications are
  /// not counted.
  linalg::KernelCounts kernel_counts;
  bool transpile_cache_hit = false;
  bool noise_model_cache_hit = false;
  bool compiled_cache_hit = false;      // compiled-program cache (all engines)
  double wall_ms = 0.0;
  /// True when the run's deadline expired and `probabilities` is a flagged
  /// partial result rather than the full computation.
  bool timed_out = false;
  /// "<kind>: <what>" of the error that failed this run ("" on success).
  std::string error;
  /// Trajectory engine only: shots actually completed before the deadline
  /// (== `shots` on an untimed run).
  std::size_t completed_shots = 0;
  /// Trace this run's spans were recorded under (0 when the request carried
  /// no trace context) — the key for per-trace extraction and tail sampling.
  std::uint64_t trace_id = 0;
};

/// Outcome distribution (virtual bit order, normalized) plus its provenance.
struct RunResult {
  std::vector<double> probabilities;
  RunRecord record;
  RunStatus status = RunStatus::Ok;
  bool ok() const { return status == RunStatus::Ok; }
};

/// Aggregate hit/miss counters across an engine's session caches plus the
/// current entry counts (CacheStats alone says nothing about cache *size*,
/// which the serve stats endpoint and capacity planning need).
struct CacheSnapshot;

/// Aggregate hit/miss/eviction counters across an engine's session caches.
struct CacheStats {
  std::size_t transpile_hits = 0, transpile_misses = 0, transpile_evictions = 0;
  std::size_t model_hits = 0, model_misses = 0, model_evictions = 0;
  std::size_t compiled_hits = 0, compiled_misses = 0, compiled_evictions = 0;

  static double rate(std::size_t hits, std::size_t misses) {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct CacheSnapshot {
  CacheStats stats;
  std::size_t transpile_entries = 0;
  std::size_t model_entries = 0;
  std::size_t compiled_entries = 0;
  std::size_t matrix_entries = 0;  // always 0; kept for callers that still sum it
  std::size_t cap = 0;             // entry cap of each cache
};

}  // namespace qc::exec
