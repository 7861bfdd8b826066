// Embedding small operators into n-qubit spaces, and the generic apply-gate
// loops: the k > 4 fallback of the specialized kernels in kernels.hpp and the
// reference their tests compare against.
//
// Bit convention (Qiskit-compatible): qubit 0 is the least-significant bit
// of a basis index, so |q_{n-1} ... q_1 q_0>.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace qc::linalg {

/// Embeds a 2^k x 2^k operator acting on `qubits` (distinct, each in
/// [0, num_qubits)) into the full 2^n x 2^n space.
Matrix embed(const Matrix& op, const std::vector<int>& qubits, int num_qubits);

/// state := (op on qubits) * state, in place. `state.size()` must be a power
/// of two with at least max(qubits)+1 qubits. Core state-vector kernel.
void apply_gate_inplace(std::vector<cplx>& state, const Matrix& op,
                        const std::vector<int>& qubits);

/// u := embed(op) * u without forming the embedded matrix (applies the
/// state-vector kernel to each column of u). The k > 4 fallback of
/// linalg::left_apply (kernels.hpp) and a reference for its tests.
void left_apply_inplace(Matrix& u, const Matrix& op, const std::vector<int>& qubits);

/// u := u * embed(op) without forming the embedded matrix. The k > 4
/// fallback of linalg::right_apply_adjoint and a reference for its tests.
void right_apply_inplace(Matrix& u, const Matrix& op, const std::vector<int>& qubits);

}  // namespace qc::linalg
