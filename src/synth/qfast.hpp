// QFast-style hierarchical synthesis.
//
// Like the original tool, it explores a *continuous* circuit space that
// scales past QSearch's reach (4-6 qubits): the structure is a chain of
// generic two-qubit blocks (each expressive enough for any SU(4) element);
// depth grows until the target fidelity is met or the depth cap hits.
// Because each generic block is parameterized directly over {CX, U3}, the
// instantiation stage of the original pipeline is the identity here.
//
// The original requires no source modification to harvest approximations —
// callers pass a `partial_solution_callback`; this port keeps exactly that
// interface (every optimized depth, and optionally interleaved coarse
// passes, are reported through it).
#pragma once

#include "synth/qsearch.hpp"

namespace qc::synth {

struct QFastOptions {
  double success_threshold = 1e-8;
  int max_blocks = 16;           // 3 CX per block
  OptimizeOptions optimizer;
  int restarts_per_depth = 1;
  std::uint64_t seed = 0x51464153;
  /// The original tool's model_options["partial_solution_callback"].
  IntermediateCallback partial_solution_callback;
  /// Also emit snapshots at reduced optimization budgets per depth, widening
  /// the harvested approximation set (off reproduces stock QFast output).
  bool emit_coarse_passes = true;
  /// Polled before each depth growth and inside each depth's optimization;
  /// on expiry the best circuit so far is returned flagged `timed_out`.
  common::Deadline deadline;
};

struct QFastResult {
  ApproxCircuit best;
  bool converged = false;
  int depths_tried = 0;
  /// True when the deadline cut depth growth short.
  bool timed_out = false;
};

/// Synthesizes `target`; block placement follows a fixed deterministic sweep
/// over `coupling` edges (or all pairs when null), mirroring the tool's
/// layered exploration. Memoized in the synthesis cache (synth/cache.hpp),
/// which replays the recorded partial-solution stream on a hit.
QFastResult qfast_synthesize(const linalg::Matrix& target, int num_qubits,
                             const QFastOptions& options = {},
                             const noise::CouplingMap* coupling = nullptr);

}  // namespace qc::synth
