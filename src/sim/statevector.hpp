// Pure-state simulator.
//
// The ideal-execution engine (noise-free references) and the per-shot state
// of the trajectory engine (sim/compiled.hpp). Amplitudes are indexed with
// qubit 0 as the least-significant bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace qc::sim {

class StateVector {
 public:
  /// |0...0> on `num_qubits` qubits.
  explicit StateVector(int num_qubits);
  /// Adopts an explicit amplitude vector (must have 2^n entries, norm 1).
  StateVector(int num_qubits, std::vector<linalg::cplx> amplitudes);

  int num_qubits() const { return num_qubits_; }
  const std::vector<linalg::cplx>& amplitudes() const { return amps_; }

  /// Applies one unitary gate.
  void apply(const ir::Gate& gate);
  /// Applies every unitary gate of the circuit in order (skips barriers;
  /// throws on Measure — use sample()/probabilities() for output).
  void apply(const ir::QuantumCircuit& circuit);
  /// Applies an arbitrary operator matrix on the given qubits (also used for
  /// normalized Kraus operators during trajectory evolution). Dispatches to
  /// the specialized kernels in linalg/kernels.hpp by operator shape.
  void apply_matrix(const linalg::Matrix& op, const std::vector<int>& qubits);
  /// The same with a plan made for this width (linalg::plan_kernel), so a
  /// compiled program's replays skip the checks and classification.
  void apply_matrix(const linalg::Matrix& op, const std::vector<int>& qubits,
                    const linalg::KernelPlan& plan);
  /// The same with the plan already bound to op (linalg::bind_kernel), so a
  /// trajectory shot tree binds each noise operator once per run.
  void apply_bound(const linalg::BoundKernel& bound);

  /// Back to |0...0> without reallocating; lets trajectory loops reuse one
  /// amplitude buffer across shots.
  void reset();

  /// Exact outcome distribution |amp|^2 (size 2^n).
  std::vector<double> probabilities() const;
  /// Probability that qubit q reads 1.
  double probability_one(int q) const;
  /// <psi| Z_q |psi>.
  double expectation_z(int q) const;

  /// Squared norm (should stay 1 within rounding; trajectory code
  /// renormalizes after Kraus jumps).
  double norm_squared() const;
  void normalize();
  /// normalize() given this state's norm_squared(), already known to the
  /// caller (a trajectory's Born weight of the branch it applied).
  void normalize(double squared_norm);

  /// Samples one outcome index from the Born distribution.
  std::uint64_t sample(common::Rng& rng) const;

 private:
  int num_qubits_;
  std::vector<linalg::cplx> amps_;
};

}  // namespace qc::sim
