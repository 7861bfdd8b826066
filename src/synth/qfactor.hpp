// QFactor-style circuit optimizer (the paper's §6.5 roadmap tool).
//
// Unlike the gradient search in QSearch/QFast, QFactor sweeps the circuit
// gate by gate: for each single-qubit slot it computes the environment
// tensor of the Hilbert–Schmidt overlap and replaces the gate with the
// analytically optimal unitary (from the environment's SVD). Each update is
// globally optimal for that slot, so sweeps decrease the cost monotonically
// — no step sizes, no line searches. Handles wider circuits than tree
// search because the per-sweep cost is linear in gate count.
//
// The sweep is incremental: it maintains the forward product B·T† with
// O(dim²) row ops and extracts each slot's environment directly from it,
// instead of forming the dense O(dim³) environment per slot.
#pragma once

#include "common/deadline.hpp"
#include "ir/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qc::synth {

struct QFactorOptions {
  int max_sweeps = 60;
  /// Stop when a full sweep improves the cost by less than this.
  double tolerance = 1e-12;
  /// Declare convergence below this HS distance.
  double success_threshold = 1e-5;
  /// Polled once per sweep; on expiry the current (monotonically improved)
  /// angles are returned flagged `timed_out`.
  common::Deadline deadline;
};

struct QFactorResult {
  ir::QuantumCircuit circuit;  // same structure, re-optimized U3 angles
  double hs_distance = 1.0;
  int sweeps = 0;
  bool converged = false;
  /// True when the deadline cut the sweep loop short.
  bool timed_out = false;
};

/// Re-optimizes every U3 in `structure` (a {CX, U3} circuit; other gates are
/// lowered first) against `target`, keeping the CX skeleton fixed. The
/// incoming U3 angles are the starting point, so this doubles as a
/// fine-tuner for QSearch/QFast output. Memoized in the synthesis cache
/// (synth/cache.hpp).
QFactorResult qfactor_optimize(const ir::QuantumCircuit& structure,
                               const linalg::Matrix& target,
                               const QFactorOptions& options = {});

/// A one-qubit slot's environment as the sweep uses it: the 2x2 matrix
/// kt(a, b) = Σ_base Σ_j L(base|a·bit, j) · S(j, base|b·bit) over the bases
/// with the qubit's bit clear, where L is the forward product B·T† and S the
/// suffix product after the slot, without forming L·S. Exposed for tests.
linalg::Matrix qfactor_environment(const linalg::Matrix& l, const linalg::Matrix& suffix,
                                   int qubit);

/// Unitary 2x2 maximizing |Tr(U K)| for a given complex 2x2 K (the SVD-based
/// environment update). Exposed for tests.
linalg::Matrix best_unitary_for_environment(const linalg::Matrix& k);

}  // namespace qc::synth
