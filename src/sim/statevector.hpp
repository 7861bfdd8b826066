// Pure-state simulator.
//
// The state that sim/compiled.hpp evolves: the per-shot state of the
// trajectory engine and the one pass of statevector_probabilities (noise-free
// references go through sim::ideal_probabilities). It applies only operators
// already planned and bound (linalg::bind_kernel); circuits are compiled, not
// applied gate by gate. Amplitudes are indexed with qubit 0 as the
// least-significant bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
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

  /// Applies an operator whose kernel plan (linalg::plan_kernel, made for
  /// this width) is bound to its entries (linalg::bind_kernel): a step
  /// unitary, a mixed-unitary branch or a Kraus operator (the caller
  /// renormalizes). The one way to change the amplitudes.
  void apply_bound(const linalg::BoundKernel& bound);

  /// Back to |0...0> without reallocating; lets trajectory loops reuse one
  /// amplitude buffer across shots.
  void reset();

  /// Exact outcome distribution |amp|^2 (size 2^n).
  std::vector<double> probabilities() const;

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
