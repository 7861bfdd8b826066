// Quantum channels in Kraus form, and the standard error channels the
// device noise models are assembled from (the same channel family Qiskit
// Aer builds its calibration-derived models with).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace qc::noise {

/// Completely-positive trace-preserving map given by Kraus operators
/// {K_i} with sum_i K_i† K_i = I.
class Channel {
 public:
  /// Validates dimensions and (optionally) the completeness relation.
  explicit Channel(std::vector<linalg::Matrix> kraus, bool validate = true);

  const std::vector<linalg::Matrix>& kraus() const { return kraus_; }
  int num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return kraus_.front().rows(); }

  /// True when sum K†K = I within tol.
  bool is_trace_preserving(double tol = 1e-9) const;

  /// rho := sum_i K_i rho K_i† for a density matrix over exactly this
  /// channel's qubits (full-dimension application; the simulator embeds).
  linalg::Matrix apply(const linalg::Matrix& rho) const;

  /// Sequential composition: (other ∘ this), same width.
  Channel compose(const Channel& other) const;

  /// For trajectory sampling: if every Kraus operator is proportional to a
  /// unitary, returns the probabilities and unitaries (p_i, U_i) of the
  /// mixed-unitary decomposition; empty optional semantics via bool return.
  bool mixed_unitary_form(std::vector<double>& probs,
                          std::vector<linalg::Matrix>& unitaries,
                          double tol = 1e-9) const;

 private:
  std::vector<linalg::Matrix> kraus_;
  int num_qubits_;
};

// ---- standard channels ---------------------------------------------------

/// Deterministic unitary channel (e.g. coherent over-rotation errors).
Channel unitary_channel(const linalg::Matrix& u);

/// n-qubit depolarizing with probability p: rho -> (1-p) rho + p I/2^n.
/// Implemented as the uniform Pauli-twirl Kraus set (mixed-unitary).
Channel depolarizing(double p, int num_qubits);

/// Single-qubit Pauli channel with probabilities (px, py, pz).
Channel pauli_channel(double px, double py, double pz);

/// Bit flip / phase flip shorthands.
Channel bit_flip(double p);
Channel phase_flip(double p);

/// Amplitude damping with decay probability gamma.
Channel amplitude_damping(double gamma);

/// Pure dephasing with probability lambda.
Channel phase_damping(double lambda);

/// Thermal relaxation over a gate of `duration` given T1/T2 (same time
/// units). Requires t2 <= 2 t1. Uses the standard Aer construction:
/// amplitude damping (1 - e^{-t/T1}) composed with pure dephasing chosen so
/// the total coherence decay is e^{-t/T2}.
Channel thermal_relaxation(double t1, double t2, double duration);

/// Coherent CX over-rotation: extra exp(-i (theta/2) ZZ) after the gate —
/// the dominant coherent error mode of cross-resonance CNOTs; used by the
/// hardware-mode backend.
Channel zz_overrotation(double theta);

}  // namespace qc::noise
