// Compiled noisy-circuit programs: the reusable halves of the trajectory
// engine, split so callers can amortize compilation across repetitions.
//
// A noisy circuit run has two phases with very different costs:
//
//  * compile — per (circuit, noise model): build each gate's matrix
//    (Gate::matrix, no cache: a lookup would cost more than the 2x2 or 4x4
//    it saves), bind the model's error channels to concrete qubits, precompute mixed-unitary
//    decompositions, and plan every step unitary and noise operator once
//    (linalg::plan_kernel: checks, kernel class, qubit geometry). Identical
//    for every shot. A gate's noise depends only on its qubits, so the
//    program holds one noise list per distinct gate-qubit tuple (a 3-qubit
//    program has at most 9) and each step indexes its list: the model is
//    asked once per tuple, not once per gate. No adjoints are stored: the
//    density-matrix engine's right conjugation reads conj(op) from each
//    operator's own entries under the same plan.
//  * evolve  — per shot range: a depth-first shot tree. The tree first binds
//    every step unitary and every operator of the program's noise lists to
//    its plan (linalg::bind_kernel) and sums each mixed-unitary weight
//    vector, once, in its own scratch. All shots of the range start on one shared state
//    and each draws its noise branches from its own RNG stream; at a noise op
//    the group splits by the branch each shot picked. Every distinct branch
//    history is therefore evolved once and sampled by all of its shots, and
//    each shot draws exactly what a lone replay of it would, on a
//    bit-identical state.
//
// The execution engine (src/exec) caches CompiledCircuit programs per
// (transpiled circuit, noise model) and evolves each run's shots as one tree
// (qsim/Cirq amortize noisy trajectory repetitions across shots too, Isakov
// et al., arXiv:2111.02396).
//
// Four simulate entry points: trajectory_counts_streamed (a shot range),
// density_matrix_probabilities (exact noisy), statevector_probabilities
// (noise free) and ideal_probabilities (a circuit's noise-free reference,
// compiled and run in one call). The first three take an optional Deadline
// and stop early on expiry. There is no gate-by-gate path: StateVector and
// DensityMatrix apply only the planned operators of a compiled program.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/deadline.hpp"
#include "ir/circuit.hpp"
#include "linalg/kernels.hpp"
#include "noise/noise_model.hpp"
#include "sim/statevector.hpp"

namespace qc::sim {

/// One precompiled noise channel bound to concrete qubits: either a
/// mixed-unitary sampler (state-independent branch weights — depolarizing,
/// Pauli, coherent errors) or a general Kraus set requiring Born-weighted
/// branching (relaxation).
struct CompiledNoiseOp {
  std::vector<int> qubits;
  bool mixed_unitary = false;
  std::vector<double> probs;              // mixed-unitary branch weights
  std::vector<linalg::Matrix> operators;  // unitaries or raw Kraus ops
  std::vector<linalg::KernelPlan> plans;  // one per operator, for the span
};

/// CompiledStep::noise of a step that no noise follows.
inline constexpr std::size_t kNoNoise = static_cast<std::size_t>(-1);

/// One gate application plus the noise that follows it. After fusion a step's
/// unitary may be the product of several adjacent source gates.
struct CompiledStep {
  std::vector<int> qubits;
  linalg::Matrix unitary;
  std::size_t noise = kNoNoise;    // index into CompiledCircuit::noise_lists
  linalg::KernelPlan plan = {};    // kernel class and geometry of `unitary`
  std::size_t source_count = 1;    // source gates folded into this step
};

/// Per-arity fused-block tally: index k in [1, 4] counts compiled steps on k
/// qubits whose unitary is the product of >= 2 source gates (index 0 unused).
using FusedBlocksByK = std::array<std::size_t, 5>;

/// A full shot-replayable program: self-contained (owns gate qubit lists and
/// matrices), safe to share across threads once built.
struct CompiledCircuit {
  int num_qubits = 0;
  std::vector<CompiledStep> steps;
  /// The distinct non-empty noise lists of the program, one per gate-qubit
  /// tuple, in order of first occurrence; steps refer to them by index.
  std::vector<std::vector<CompiledNoiseOp>> noise_lists;
  std::vector<noise::ReadoutError> readout;  // sliced to the circuit's width
  std::size_t source_gates = 0;  // unitary gates before fusion
  std::size_t fused_gates = 0;   // gates merged into a neighbouring step
  FusedBlocksByK fused_blocks_by_k{};  // fused steps by final arity
  /// Dispatch class of each final step unitary, one count per step; the
  /// noise operators' kernels and per-shot applications are not counted.
  linalg::KernelCounts kernel_counts;

  /// The noise that follows `step` (empty for kNoNoise).
  std::span<const CompiledNoiseOp> noise(const CompiledStep& step) const {
    if (step.noise == kNoNoise) return {};
    return noise_lists[step.noise];
  }
};

struct CompileOptions {
  /// Largest qubit union a fused step may grow to, clamped to [0, 4] (4 is
  /// the widest specialized kernel); 0 turns fusion off. A step is fused into
  /// its successor when the step carries no noise, the two overlap on at
  /// least one qubit, and the union stays within this cap, so greedy growth
  /// turns noise-free regions into dense 8x8/16x16 blocks (qsim/Cirq's
  /// gate-fusion recipe, Isakov et al., arXiv:2111.02396). Noise draws keep
  /// their order — only noise-free unitaries merge — so trajectory RNG
  /// streams are unchanged; amplitudes agree to rounding (~1e-15).
  ///
  /// Production callers keep the default. Other values are the test
  /// reference for fused-vs-unfused checks: 0 compiles one step per gate,
  /// 2 reproduces pairwise fusion, 1 allows only same-qubit runs.
  int max_fuse_qubits = 4;
};

/// Compiles `circuit` against `model` once (phase 1 above). Noise ops that
/// touch device qubits outside the circuit's register (crosstalk spectators,
/// which start in |0> and trace out) are dropped. Throws common::Error when
/// the circuit is wider than the model's device.
CompiledCircuit compile_noisy_circuit(const ir::QuantumCircuit& circuit,
                                      const noise::NoiseModel& model,
                                      const CompileOptions& options = {});

/// Relative tolerance on |norm² - 1| of a trajectory leaf state. Unitary and
/// renormalized-Kraus applications preserve the norm to rounding, so drift
/// beyond this means the state is corrupt (NaN amplitudes, a broken kernel, an
/// injected fault) and the run throws SimulationError instead of sampling
/// garbage.
inline constexpr double kNormDriftTolerance = 1e-6;

/// Shot range [shot_begin, shot_end) with one counter-derived RNG stream per
/// shot index (common::derive_stream_seed(seed, shot)), evolved as a
/// depth-first shot tree (see "evolve" above): a leaf is one distinct branch
/// history, and every shot that reached it samples the leaf state with its
/// own stream (measurement, then readout bit flips). Disjoint ranges can run
/// on different threads and their counts summed; the totals are bit-identical
/// for every partition, hence every thread count. Polls `deadline` before
/// each leaf and stops early on expiry, returning the counts of the leaves
/// sampled so far; `*completed` (if non-null) receives the number of shots
/// sampled and `*leaves` (if non-null) the number of leaves they came from.
/// Completed shots are bit-identical to an unbounded run's. Throws
/// SimulationError when a leaf state fails the norm-drift guard; the
/// faults::Site::StateNan site poisons the leaf of any shot whose stream seed
/// it fires on.
std::vector<std::uint64_t> trajectory_counts_streamed(
    const CompiledCircuit& compiled, std::size_t shot_begin, std::size_t shot_end,
    std::uint64_t seed, const common::Deadline& deadline = common::Deadline::never(),
    std::size_t* completed = nullptr, std::size_t* leaves = nullptr);

/// Exact noisy evolution of a compiled program (density matrix + exact
/// readout confusion), normalized, through the program's kernel plans.
/// Polls `deadline` between steps; on expiry sets `*timed_out` (if non-null)
/// and returns the distribution of the partially evolved state (readout error
/// still applied) as a best-effort answer. Throws SimulationError when the
/// evolved trace drifts (corrupt state).
std::vector<double> density_matrix_probabilities(
    const CompiledCircuit& compiled,
    const common::Deadline& deadline = common::Deadline::never(),
    bool* timed_out = nullptr);

/// Noise-free evolution of a compiled program (every step must carry no
/// noise, e.g. compiled against NoiseModel::ideal): one state-vector pass.
/// Deadline handling as for density_matrix_probabilities.
std::vector<double> statevector_probabilities(
    const CompiledCircuit& compiled,
    const common::Deadline& deadline = common::Deadline::never(),
    bool* timed_out = nullptr);

/// The ideal outcome distribution of `circuit` (size 2^n, qubit 0 the
/// least-significant bit): statevector_probabilities of the default compile
/// against NoiseModel::ideal. Barriers and Measure gates are skipped. The one
/// noise-free reference of the figures (QV heavy outputs, router TVD,
/// magnetization error) and of the tests.
std::vector<double> ideal_probabilities(const ir::QuantumCircuit& circuit);

}  // namespace qc::sim
