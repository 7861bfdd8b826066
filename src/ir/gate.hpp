// Gate set and gate matrices.
//
// The kinds cover everything the paper's workloads and transpiler need:
// the {CX, U3} hardware basis, the standard named gates used to express
// reference circuits (Grover, Toffoli, TFIM Trotter steps), multi-control X,
// and the non-unitary markers (measure, barrier).
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace qc::ir {

enum class GateKind {
  I,
  X,
  Y,
  Z,
  H,
  S,
  Sdg,
  T,
  Tdg,
  SX,
  RX,
  RY,
  RZ,
  P,   // phase gate (a.k.a. u1)
  U2,  // u2(phi, lambda)
  U3,  // u3(theta, phi, lambda)
  CX,
  CY,
  CZ,
  CH,
  CP,   // controlled phase
  CRX,
  CRY,
  CRZ,
  SWAP,
  RXX,  // exp(-i theta/2 X⊗X)
  RYY,
  RZZ,
  CCX,   // Toffoli
  CSWAP,
  MCX,   // multi-control X, any number of controls; last qubit is the target
  Barrier,
  Measure,
};

/// Canonical lowercase mnemonic ("cx", "u3", ...). Stable; used by QASM I/O.
const std::string& gate_name(GateKind kind);

/// Inverse lookup of gate_name; throws ContractError on unknown names.
GateKind gate_kind_from_name(const std::string& name);

/// Qubit arity; -1 for variable arity (MCX, Barrier, Measure).
int gate_num_qubits(GateKind kind);

/// Number of real parameters the kind takes.
int gate_num_params(GateKind kind);

/// True for kinds that have a unitary matrix (everything except
/// Barrier/Measure).
bool gate_is_unitary(GateKind kind);

/// One gate application: kind + qubit operands + real parameters.
/// For controlled kinds, controls come first and the target is last
/// (e.g. CX{control, target}; MCX{c0, c1, ..., target}).
struct Gate {
  GateKind kind;
  std::vector<int> qubits;
  std::vector<double> params;

  Gate(GateKind k, std::vector<int> q, std::vector<double> p = {});

  bool operator==(const Gate& rhs) const;

  /// Unitary of this gate over its own qubits (dimension 2^arity), where
  /// sub-basis bit b corresponds to qubits[b]. Throws for Barrier/Measure.
  linalg::Matrix matrix() const;

  /// Gate with the inverse unitary (adjoint); throws for Barrier/Measure.
  Gate inverse() const;

  std::string to_string() const;
};

/// Matrix for a kind with explicit params over `arity` qubits; used for MCX
/// where the size depends on operand count.
linalg::Matrix gate_matrix(GateKind kind, const std::vector<double>& params,
                           std::size_t arity);

}  // namespace qc::ir
