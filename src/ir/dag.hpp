// Lightweight DAG view over a QuantumCircuit.
//
// Gate order in the circuit is already a topological order; the DAG adds the
// per-qubit wiring (next gate on each wire) that peephole passes need to find
// adjacent-gate pairs (CX-CX cancellation, U3 fusion) without quadratic
// rescans.
#pragma once

#include <cstddef>
#include <vector>

#include "ir/circuit.hpp"

namespace qc::ir {

class DagView {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit DagView(const QuantumCircuit& circuit);

  /// Index of the next gate touching `qubit` after gate `i`; kNone at the end
  /// of the wire. `i` must act on `qubit`.
  std::size_t next_on_qubit(std::size_t i, int qubit) const;

 private:
  const QuantumCircuit& circuit_;
  // next_[i][k]: neighbour on wire circuit.gate(i).qubits[k].
  std::vector<std::vector<std::size_t>> next_;

  std::size_t operand_slot(std::size_t i, int qubit) const;
};

}  // namespace qc::ir
