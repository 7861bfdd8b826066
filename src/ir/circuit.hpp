// QuantumCircuit: an ordered gate list over a fixed qubit count, with
// builder helpers, composition, statistics and a unitary builder.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/gate.hpp"
#include "linalg/matrix.hpp"

namespace qc::ir {

/// Widest register a circuit may declare. Wide registers are fine for
/// IR-level work (device-width circuits during routing); only to_unitary()
/// and the simulators need small registers.
inline constexpr int kMaxCircuitQubits = 256;

class QuantumCircuit {
 public:
  /// Null circuit (0 qubits): a placeholder distinguishable via is_null();
  /// every mutating/query call on it other than is_null()/empty() throws.
  QuantumCircuit() = default;
  explicit QuantumCircuit(int num_qubits, std::string name = "");

  bool is_null() const { return num_qubits_ == 0; }

  int num_qubits() const { return num_qubits_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<Gate>& gates() const { return gates_; }
  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }
  const Gate& gate(std::size_t i) const;

  /// Appends a gate (validates qubit indices against num_qubits).
  void append(Gate g);
  /// Appends all gates of `other` (same width required).
  void append(const QuantumCircuit& other);
  /// Appends `other` with its qubit i mapped to `mapping[i]`.
  void append_mapped(const QuantumCircuit& other, const std::vector<int>& mapping);

  // ---- builder helpers -------------------------------------------------
  QuantumCircuit& x(int q);
  QuantumCircuit& y(int q);
  QuantumCircuit& z(int q);
  QuantumCircuit& h(int q);
  QuantumCircuit& s(int q);
  QuantumCircuit& sdg(int q);
  QuantumCircuit& t(int q);
  QuantumCircuit& tdg(int q);
  QuantumCircuit& rx(double theta, int q);
  QuantumCircuit& ry(double theta, int q);
  QuantumCircuit& rz(double theta, int q);
  QuantumCircuit& p(double phi, int q);
  QuantumCircuit& u3(double theta, double phi, double lambda, int q);
  QuantumCircuit& cx(int control, int target);
  QuantumCircuit& cz(int control, int target);
  QuantumCircuit& cp(double phi, int control, int target);
  QuantumCircuit& swap(int a, int b);
  QuantumCircuit& rzz(double theta, int a, int b);
  QuantumCircuit& rxx(double theta, int a, int b);
  QuantumCircuit& ccx(int c0, int c1, int target);
  QuantumCircuit& mcx(const std::vector<int>& controls, int target);
  QuantumCircuit& barrier();
  QuantumCircuit& measure_all();

  // ---- statistics ------------------------------------------------------
  /// Number of gates of a given kind.
  std::size_t count(GateKind kind) const;
  /// Longest dependency chain of unitary gates (circuit depth).
  std::size_t depth() const;
  /// True if every gate is CX or U3 (hardware basis).
  bool in_cx_u3_basis() const;
  /// True if circuit contains a Measure gate.
  bool has_measurements() const;
  /// Order-dependent 64-bit content hash over (width, gates, operands,
  /// parameter bits); the circuit's name is excluded. Used as a cache key by
  /// the execution engine, so equal-content circuits share transpile work.
  std::uint64_t fingerprint() const;

  // ---- transforms ------------------------------------------------------
  /// Reverse circuit with inverted gates; throws if a Measure is present.
  QuantumCircuit inverse() const;
  /// Circuit without Barrier/Measure gates.
  QuantumCircuit unitary_part() const;

  /// Full 2^n x 2^n unitary of the unitary part (gates applied in order,
  /// i.e. U = G_last ... G_1 G_0).
  linalg::Matrix to_unitary() const;

  std::string to_string() const;

 private:
  void check_gate(const Gate& g) const;

  int num_qubits_ = 0;
  std::string name_;
  std::vector<Gate> gates_;
};

}  // namespace qc::ir
