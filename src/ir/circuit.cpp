#include "ir/circuit.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/kernels.hpp"

namespace qc::ir {

QuantumCircuit::QuantumCircuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  QC_CHECK_MSG(num_qubits > 0 && num_qubits <= kMaxCircuitQubits,
               "qubit count out of supported range");
}

const Gate& QuantumCircuit::gate(std::size_t i) const {
  QC_CHECK(i < gates_.size());
  return gates_[i];
}

void QuantumCircuit::check_gate(const Gate& g) const {
  for (int q : g.qubits)
    QC_CHECK_MSG(q >= 0 && q < num_qubits_, "gate operand outside register");
}

void QuantumCircuit::append(Gate g) {
  check_gate(g);
  gates_.push_back(std::move(g));
}

void QuantumCircuit::append(const QuantumCircuit& other) {
  QC_CHECK(other.num_qubits_ <= num_qubits_);
  for (const Gate& g : other.gates_) append(g);
}

void QuantumCircuit::append_mapped(const QuantumCircuit& other,
                                   const std::vector<int>& mapping) {
  QC_CHECK(mapping.size() == static_cast<std::size_t>(other.num_qubits_));
  for (const Gate& g : other.gates_) {
    std::vector<int> qubits;
    qubits.reserve(g.qubits.size());
    for (int q : g.qubits) qubits.push_back(mapping[q]);
    append(Gate(g.kind, std::move(qubits), g.params));
  }
}

QuantumCircuit& QuantumCircuit::x(int q) { append(Gate(GateKind::X, {q})); return *this; }
QuantumCircuit& QuantumCircuit::y(int q) { append(Gate(GateKind::Y, {q})); return *this; }
QuantumCircuit& QuantumCircuit::z(int q) { append(Gate(GateKind::Z, {q})); return *this; }
QuantumCircuit& QuantumCircuit::h(int q) { append(Gate(GateKind::H, {q})); return *this; }
QuantumCircuit& QuantumCircuit::s(int q) { append(Gate(GateKind::S, {q})); return *this; }
QuantumCircuit& QuantumCircuit::sdg(int q) { append(Gate(GateKind::Sdg, {q})); return *this; }
QuantumCircuit& QuantumCircuit::t(int q) { append(Gate(GateKind::T, {q})); return *this; }
QuantumCircuit& QuantumCircuit::tdg(int q) { append(Gate(GateKind::Tdg, {q})); return *this; }
QuantumCircuit& QuantumCircuit::rx(double theta, int q) {
  append(Gate(GateKind::RX, {q}, {theta}));
  return *this;
}
QuantumCircuit& QuantumCircuit::ry(double theta, int q) {
  append(Gate(GateKind::RY, {q}, {theta}));
  return *this;
}
QuantumCircuit& QuantumCircuit::rz(double theta, int q) {
  append(Gate(GateKind::RZ, {q}, {theta}));
  return *this;
}
QuantumCircuit& QuantumCircuit::p(double phi, int q) {
  append(Gate(GateKind::P, {q}, {phi}));
  return *this;
}
QuantumCircuit& QuantumCircuit::u3(double theta, double phi, double lambda, int q) {
  append(Gate(GateKind::U3, {q}, {theta, phi, lambda}));
  return *this;
}
QuantumCircuit& QuantumCircuit::cx(int control, int target) {
  append(Gate(GateKind::CX, {control, target}));
  return *this;
}
QuantumCircuit& QuantumCircuit::cz(int control, int target) {
  append(Gate(GateKind::CZ, {control, target}));
  return *this;
}
QuantumCircuit& QuantumCircuit::cp(double phi, int control, int target) {
  append(Gate(GateKind::CP, {control, target}, {phi}));
  return *this;
}
QuantumCircuit& QuantumCircuit::swap(int a, int b) {
  append(Gate(GateKind::SWAP, {a, b}));
  return *this;
}
QuantumCircuit& QuantumCircuit::rzz(double theta, int a, int b) {
  append(Gate(GateKind::RZZ, {a, b}, {theta}));
  return *this;
}
QuantumCircuit& QuantumCircuit::rxx(double theta, int a, int b) {
  append(Gate(GateKind::RXX, {a, b}, {theta}));
  return *this;
}
QuantumCircuit& QuantumCircuit::ccx(int c0, int c1, int target) {
  append(Gate(GateKind::CCX, {c0, c1, target}));
  return *this;
}
QuantumCircuit& QuantumCircuit::mcx(const std::vector<int>& controls, int target) {
  std::vector<int> qubits = controls;
  qubits.push_back(target);
  append(Gate(GateKind::MCX, std::move(qubits)));
  return *this;
}
QuantumCircuit& QuantumCircuit::barrier() {
  std::vector<int> qubits(static_cast<std::size_t>(num_qubits_));
  std::iota(qubits.begin(), qubits.end(), 0);
  append(Gate(GateKind::Barrier, std::move(qubits)));
  return *this;
}
QuantumCircuit& QuantumCircuit::measure_all() {
  std::vector<int> qubits(static_cast<std::size_t>(num_qubits_));
  std::iota(qubits.begin(), qubits.end(), 0);
  append(Gate(GateKind::Measure, std::move(qubits)));
  return *this;
}

std::size_t QuantumCircuit::count(GateKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(),
                    [kind](const Gate& g) { return g.kind == kind; }));
}

std::size_t QuantumCircuit::depth() const {
  std::vector<std::size_t> wire(static_cast<std::size_t>(num_qubits_), 0);
  std::size_t depth = 0;
  for (const Gate& g : gates_) {
    if (!gate_is_unitary(g.kind)) continue;
    std::size_t level = 0;
    for (int q : g.qubits) level = std::max(level, wire[q]);
    ++level;
    for (int q : g.qubits) wire[q] = level;
    depth = std::max(depth, level);
  }
  return depth;
}

bool QuantumCircuit::in_cx_u3_basis() const {
  return std::all_of(gates_.begin(), gates_.end(), [](const Gate& g) {
    return g.kind == GateKind::CX || g.kind == GateKind::U3 ||
           g.kind == GateKind::Barrier || g.kind == GateKind::Measure;
  });
}

bool QuantumCircuit::has_measurements() const {
  return count(GateKind::Measure) > 0;
}

std::uint64_t QuantumCircuit::fingerprint() const {
  using common::hash_combine;
  std::uint64_t h = hash_combine(0x51c2c5a02720f5a5ULL,
                                 static_cast<std::uint64_t>(num_qubits_));
  for (const Gate& g : gates_) {
    h = hash_combine(h, static_cast<std::uint64_t>(g.kind));
    h = hash_combine(h, g.qubits.size());
    for (int q : g.qubits) h = hash_combine(h, static_cast<std::uint64_t>(q));
    h = hash_combine(h, g.params.size());
    for (double p : g.params) h = hash_combine(h, std::bit_cast<std::uint64_t>(p));
  }
  return h;
}

QuantumCircuit QuantumCircuit::inverse() const {
  QC_CHECK_MSG(!has_measurements(), "cannot invert a circuit with measurements");
  QuantumCircuit inv(num_qubits_, name_.empty() ? "" : name_ + "_inv");
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    if (it->kind == GateKind::Barrier) {
      inv.append(*it);
    } else {
      inv.append(it->inverse());
    }
  }
  return inv;
}

QuantumCircuit QuantumCircuit::unitary_part() const {
  QuantumCircuit out(num_qubits_, name_);
  for (const Gate& g : gates_)
    if (gate_is_unitary(g.kind)) out.append(g);
  return out;
}

linalg::Matrix QuantumCircuit::to_unitary() const {
  QC_CHECK_MSG(num_qubits_ >= 1 && num_qubits_ <= 24,
               "to_unitary is only available for <= 24 qubit circuits");
  linalg::Matrix u = linalg::Matrix::identity(std::size_t{1} << num_qubits_);
  for (const Gate& g : gates_) {
    if (!gate_is_unitary(g.kind)) continue;
    linalg::left_apply(u, g.matrix(), g.qubits);
  }
  return u;
}

std::string QuantumCircuit::to_string() const {
  std::ostringstream os;
  os << "QuantumCircuit(" << (name_.empty() ? "<anon>" : name_) << ", " << num_qubits_
     << " qubits, " << gates_.size() << " gates)\n";
  for (const Gate& g : gates_) os << "  " << g.to_string() << "\n";
  return os.str();
}

}  // namespace qc::ir
