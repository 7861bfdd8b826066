// QSearch-style optimal-depth synthesis, instrumented.
//
// Faithful to the search the paper modified: an A*-style best-first search
// over circuit structures, starting from a U3 layer and expanding by one
// {CNOT + U3 + U3} block per step on a coupling-map edge; each structure's
// continuous parameters are optimized numerically against the target's
// Hilbert–Schmidt cost before scoring.
//
// The paper's enhancement is built in rather than patched in: every
// intermediate structure the search optimizes is reported through
// `intermediate_callback` with its bound circuit and HS distance — that
// stream *is* the set of approximate circuits the study evaluates.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ir/circuit.hpp"
#include "linalg/matrix.hpp"
#include "noise/topology.hpp"
#include "synth/optimize.hpp"

namespace qc::synth {

/// One synthesized (possibly approximate) circuit.
struct ApproxCircuit {
  ir::QuantumCircuit circuit;
  double hs_distance = 1.0;
  std::size_t cnot_count = 0;
  std::string source;  // "qsearch", "qfast", "reducer"
};

using IntermediateCallback = std::function<void(const ApproxCircuit&)>;

struct QSearchOptions {
  /// Search succeeds when the HS distance drops below this. The original
  /// tool's "distance zero" default of 1e-10 is stated on its *fidelity gap*
  /// scale; on the hs = sqrt(1 - f^2) scale used here that corresponds to
  /// hs ~ sqrt(2e-10), and double precision floors hs near 1e-8 — so the
  /// practical zero is 1e-5 (fidelity gap ~5e-11).
  double success_threshold = 1e-5;
  /// Hard caps keeping the search bounded.
  int max_cnots = 8;
  int max_nodes = 120;
  /// A* priority = hs_distance + depth_weight * cnot_count; small weight
  /// preserves near-depth-optimality while pruning hopeless deep branches.
  double depth_weight = 0.0125;
  /// Continuous optimization budget per node.
  OptimizeOptions optimizer;
  int restarts_per_node = 2;
  std::uint64_t seed = 0x51534541;  // deterministic searches
  /// Report every optimized structure (the paper's modification).
  IntermediateCallback intermediate_callback;
  /// Polled at every node expansion and inside each node's optimization; on
  /// expiry the search returns its best circuit so far flagged `timed_out`.
  common::Deadline deadline;
  /// Optimize all children of a popped node concurrently on the thread pool.
  /// Results are bit-identical to the serial schedule (children are merged
  /// sequentially in edge order; see DESIGN.md §10).
  bool parallel_children = true;
  /// Pool for parallel_children; null means ThreadPool::global(). Tests pin
  /// explicit sizes here (QAPPROX_THREADS is read once per process).
  common::ThreadPool* pool = nullptr;
};

struct QSearchResult {
  /// Best circuit found (lowest HS distance; ties broken by CNOT count).
  ApproxCircuit best;
  /// True if best.hs_distance < success_threshold.
  bool converged = false;
  int nodes_expanded = 0;
  int nodes_optimized = 0;
  /// True when the deadline cut the search short; `best` is still the best
  /// structure optimized before expiry.
  bool timed_out = false;
};

/// Synthesizes `target` over `num_qubits` qubits. If `coupling` is given,
/// expansion blocks are restricted to its edges (machine-aware synthesis);
/// otherwise all qubit pairs are allowed. Throws SynthesisError when the
/// synth fault-injection site fires (keyed by options.seed). Memoized in
/// the synthesis cache (synth/cache.hpp): a repeated call replays the
/// recorded intermediate stream and returns the first run's result.
QSearchResult qsearch_synthesize(const linalg::Matrix& target, int num_qubits,
                                 const QSearchOptions& options = {},
                                 const noise::CouplingMap* coupling = nullptr);

/// The CX edges QSearch and QFast place blocks on, and part of their cache
/// key: `coupling`'s edges among qubits 0..num_qubits-1 (the map must span
/// them), or every pair when null. Both CX directions are equivalent up to
/// the surrounding U3s, so one orientation suffices. Throws when no edge is
/// usable.
std::vector<std::pair<int, int>> synthesis_edges(int num_qubits,
                                                 const noise::CouplingMap* coupling);

}  // namespace qc::synth
