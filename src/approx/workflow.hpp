// The paper's workflow (its Figure 1), as a library:
//
//   1. obtain the target unitary (from a circuit or directly),
//   2. run instrumented synthesis tools to harvest every circuit they check,
//   3. select candidates under an HS-distance threshold (never below 0.1),
//   4. hand the selected set to the execution layer (experiment.hpp).
//
// This module covers steps 1-3.
#pragma once

#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "synth/partition.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"
#include "synth/reducer.hpp"

namespace qc::approx {

struct GeneratorConfig {
  bool use_qsearch = true;
  synth::QSearchOptions qsearch;

  bool use_qfast = false;
  synth::QFastOptions qfast;

  bool use_reducer = false;
  synth::ReducerOptions reducer;

  /// Partitioned resynthesis (synth/partition.hpp): needs a reference
  /// circuit, so it only runs through generate_from_reference. The one
  /// tool that scales past whole-unitary search — when it is the only tool
  /// enabled the reference's full unitary is never even computed, which is
  /// what makes 8-10 qubit workflows tractable. Its harvested circuit
  /// carries the *accumulated per-block* HS distance (an upper bound on the
  /// whole-circuit drift), so presets pair it with an hs_threshold sized to
  /// the partition budget rather than the 0.1-1.0 whole-unitary range.
  bool use_partition = false;
  synth::PartitionedSynthesisOptions partition;

  /// Selection threshold on HS distance. The paper never selects below 0.1,
  /// so values under 0.1 are clamped up to 0.1.
  double hs_threshold = 0.5;

  /// Cap on the selected set (keeps downstream execution bounded). When the
  /// harvest exceeds it, the lowest-HS circuit per CNOT count is kept first,
  /// then remaining slots fill by ascending HS.
  std::size_t max_circuits = 300;

  /// Wall-clock bound for the whole generation pass, copied into every
  /// enabled tool whose own options are unbounded. Unbounded configs fall
  /// back to the QAPPROX_DEADLINE_MS process default.
  common::Deadline deadline;
};

/// What happened while harvesting (resilience bookkeeping). A synthesis tool
/// that throws SynthesisError is retried once with half its budget and a
/// bumped seed; a tool that fails twice is dropped and its errors recorded.
/// When nothing survives selection, generate_from_reference substitutes the
/// exact reference circuit (`source == "reference-fallback"`).
struct GenerationReport {
  int attempts = 0;   // tool invocations, including retries
  int failures = 0;   // invocations that threw
  int retries = 0;    // reduced-budget second attempts
  bool timed_out = false;   // some tool hit its deadline (partial harvest)
  bool fell_back = false;   // exact reference substituted for an empty set
  std::vector<std::string> errors;  // one entry per failed invocation
  /// Synthesis-cache traffic during this harvest (delta of the process-wide
  /// synth.cache.{hits,misses} totals; see synth/cache.hpp).
  std::uint64_t synth_cache_hits = 0;
  std::uint64_t synth_cache_misses = 0;

  /// Partitioned-resynthesis stats (zero unless use_partition ran).
  std::size_t partition_blocks = 0;
  std::size_t partition_blocks_resynthesized = 0;
  std::size_t partition_unique_blocks = 0;
  std::size_t partition_dedupe_hits = 0;
  /// Per-block searches that threw; their blocks passed through unchanged.
  std::size_t partition_block_failures = 0;

  /// True when the result is anything less than a clean full harvest.
  bool degraded() const {
    return failures > 0 || timed_out || fell_back || partition_block_failures > 0;
  }
};

/// Harvested + filtered approximate circuits for a reference circuit.
/// Deterministic in (reference, config). Sorted by CNOT count, then HS.
/// QSearch and QFast search against the reference's unitary part; partition
/// and the reducer rewrite the reference itself. Failed tools are retried
/// once with a reduced budget (see GenerationReport). Never returns an empty
/// set: when the harvest dies (all tools failed, or the selection threshold
/// ate everything), the lowered reference itself is returned as a single
/// exact "approximation" with source == "reference-fallback", so every
/// downstream study always has a full result set to execute.
std::vector<synth::ApproxCircuit> generate_from_reference(
    const ir::QuantumCircuit& reference, const GeneratorConfig& config,
    const noise::CouplingMap* coupling = nullptr,
    GenerationReport* report = nullptr);

/// Step-3 selection on an existing harvest (exposed for the HS-threshold
/// ablation): clamps the threshold to >= 0.1, filters, dedups, caps.
std::vector<synth::ApproxCircuit> select_candidates(
    std::vector<synth::ApproxCircuit> harvest, double hs_threshold,
    std::size_t max_circuits);

// ---- workload generator presets -------------------------------------------
// The budgets the paper figures run with, shared by the bench binaries and
// the serve job builders so a wire request and a figure driver harvest the
// same cloud. `fast` trims search budgets for smoke runs (the bench --fast
// flag). The TFIM preset, with the same `fast` trim, lives in tfim_study.hpp
// (tfim_generator_preset).

/// Grover figures: QSearch intermediates + reducer tail toward the deep
/// reference.
GeneratorConfig grover_generator_preset(bool fast);

/// n-qubit Toffoli figures: QFast partial solutions + reducer tail over the
/// no-ancilla reference; QSearch joins below 5 qubits.
GeneratorConfig toffoli_generator_preset(int num_qubits, bool fast);

}  // namespace qc::approx
