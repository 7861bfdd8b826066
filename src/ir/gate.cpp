#include "ir/gate.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qc::ir {

using linalg::cplx;
using linalg::Matrix;

namespace {

struct KindInfo {
  const char* name;
  int num_qubits;  // -1: variable
  int num_params;
  bool unitary;
};

const std::map<GateKind, KindInfo>& kind_table() {
  static const std::map<GateKind, KindInfo> table = {
      {GateKind::I, {"id", 1, 0, true}},       {GateKind::X, {"x", 1, 0, true}},
      {GateKind::Y, {"y", 1, 0, true}},        {GateKind::Z, {"z", 1, 0, true}},
      {GateKind::H, {"h", 1, 0, true}},        {GateKind::S, {"s", 1, 0, true}},
      {GateKind::Sdg, {"sdg", 1, 0, true}},    {GateKind::T, {"t", 1, 0, true}},
      {GateKind::Tdg, {"tdg", 1, 0, true}},    {GateKind::SX, {"sx", 1, 0, true}},
      {GateKind::RX, {"rx", 1, 1, true}},      {GateKind::RY, {"ry", 1, 1, true}},
      {GateKind::RZ, {"rz", 1, 1, true}},      {GateKind::P, {"p", 1, 1, true}},
      {GateKind::U2, {"u2", 1, 2, true}},      {GateKind::U3, {"u3", 1, 3, true}},
      {GateKind::CX, {"cx", 2, 0, true}},      {GateKind::CY, {"cy", 2, 0, true}},
      {GateKind::CZ, {"cz", 2, 0, true}},      {GateKind::CH, {"ch", 2, 0, true}},
      {GateKind::CP, {"cp", 2, 1, true}},      {GateKind::CRX, {"crx", 2, 1, true}},
      {GateKind::CRY, {"cry", 2, 1, true}},    {GateKind::CRZ, {"crz", 2, 1, true}},
      {GateKind::SWAP, {"swap", 2, 0, true}},  {GateKind::RXX, {"rxx", 2, 1, true}},
      {GateKind::RYY, {"ryy", 2, 1, true}},    {GateKind::RZZ, {"rzz", 2, 1, true}},
      {GateKind::CCX, {"ccx", 3, 0, true}},    {GateKind::CSWAP, {"cswap", 3, 0, true}},
      {GateKind::MCX, {"mcx", -1, 0, true}},   {GateKind::Barrier, {"barrier", -1, 0, false}},
      {GateKind::Measure, {"measure", -1, 0, false}},
  };
  return table;
}

const KindInfo& info(GateKind kind) {
  const auto it = kind_table().find(kind);
  QC_CHECK_MSG(it != kind_table().end(), "unknown gate kind");
  return it->second;
}

Matrix mat1(cplx a, cplx b, cplx c, cplx d) { return Matrix(2, 2, {a, b, c, d}); }

/// Controlled-U with control = sub-bit 0, target = sub-bit 1
/// (sub-index m: bit0 = qubits[0] = control, bit1 = qubits[1] = target).
Matrix controlled(const Matrix& u) {
  Matrix out = Matrix::identity(4);
  // States with control bit set: m = 1 (t=0) and m = 3 (t=1).
  out(1, 1) = u(0, 0);
  out(1, 3) = u(0, 1);
  out(3, 1) = u(1, 0);
  out(3, 3) = u(1, 1);
  return out;
}

Matrix u3_matrix(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  const cplx eil = std::polar(1.0, lambda);
  const cplx eip = std::polar(1.0, phi);
  return mat1(cplx{c, 0.0}, -eil * s, eip * s, eip * eil * c);
}

Matrix two_qubit_rotation(const Matrix& pauli_pair, double theta) {
  // exp(-i theta/2 P) for P with P^2 = I: cos(t/2) I - i sin(t/2) P.
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  Matrix out = Matrix::identity(4) * cplx{c, 0.0};
  out += pauli_pair * cplx{0.0, -s};
  return out;
}

}  // namespace

const std::string& gate_name(GateKind kind) {
  static std::map<GateKind, std::string> names = [] {
    std::map<GateKind, std::string> m;
    for (const auto& [k, v] : kind_table()) m[k] = v.name;
    return m;
  }();
  return names.at(kind);
}

GateKind gate_kind_from_name(const std::string& name) {
  static const std::map<std::string, GateKind> lookup = [] {
    std::map<std::string, GateKind> m;
    for (const auto& [k, v] : kind_table()) m[v.name] = k;
    // QASM aliases.
    m["u1"] = GateKind::P;
    m["u"] = GateKind::U3;
    m["toffoli"] = GateKind::CCX;
    return m;
  }();
  const auto it = lookup.find(common::to_lower(name));
  if (it == lookup.end()) throw common::ContractError("unknown gate name: " + name);
  return it->second;
}

int gate_num_qubits(GateKind kind) { return info(kind).num_qubits; }
int gate_num_params(GateKind kind) { return info(kind).num_params; }
bool gate_is_unitary(GateKind kind) { return info(kind).unitary; }

Gate::Gate(GateKind k, std::vector<int> q, std::vector<double> p)
    : kind(k), qubits(std::move(q)), params(std::move(p)) {
  const KindInfo& ki = info(kind);
  if (ki.num_qubits >= 0) {
    QC_CHECK_MSG(static_cast<int>(qubits.size()) == ki.num_qubits,
                 std::string("wrong qubit count for ") + ki.name);
  } else if (kind == GateKind::MCX) {
    QC_CHECK_MSG(qubits.size() >= 2, "mcx needs at least one control and a target");
  } else {
    QC_CHECK_MSG(!qubits.empty(), "variable-arity gate needs at least one qubit");
  }
  QC_CHECK_MSG(static_cast<int>(params.size()) == ki.num_params,
               std::string("wrong param count for ") + ki.name);
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    QC_CHECK(qubits[i] >= 0);
    for (std::size_t j = i + 1; j < qubits.size(); ++j)
      QC_CHECK_MSG(qubits[i] != qubits[j], "duplicate qubit operand");
  }
}

bool Gate::operator==(const Gate& rhs) const {
  return kind == rhs.kind && qubits == rhs.qubits && params == rhs.params;
}

Matrix gate_matrix(GateKind kind, const std::vector<double>& params, std::size_t arity) {
  const cplx i{0.0, 1.0};
  const double is2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::I: return Matrix::identity(2);
    case GateKind::X: return mat1(0, 1, 1, 0);
    case GateKind::Y: return mat1(0, -i, i, 0);
    case GateKind::Z: return mat1(1, 0, 0, -1);
    case GateKind::H: return mat1(is2, is2, is2, -is2);
    case GateKind::S: return mat1(1, 0, 0, i);
    case GateKind::Sdg: return mat1(1, 0, 0, -i);
    case GateKind::T: return mat1(1, 0, 0, std::polar(1.0, 3.141592653589793 / 4.0));
    case GateKind::Tdg: return mat1(1, 0, 0, std::polar(1.0, -3.141592653589793 / 4.0));
    case GateKind::SX:
      return mat1(cplx{0.5, 0.5}, cplx{0.5, -0.5}, cplx{0.5, -0.5}, cplx{0.5, 0.5});
    case GateKind::RX: {
      const double c = std::cos(params[0] / 2.0), s = std::sin(params[0] / 2.0);
      return mat1(cplx{c, 0}, -i * s, -i * s, cplx{c, 0});
    }
    case GateKind::RY: {
      const double c = std::cos(params[0] / 2.0), s = std::sin(params[0] / 2.0);
      return mat1(cplx{c, 0}, cplx{-s, 0}, cplx{s, 0}, cplx{c, 0});
    }
    case GateKind::RZ: {
      return mat1(std::polar(1.0, -params[0] / 2.0), 0, 0, std::polar(1.0, params[0] / 2.0));
    }
    case GateKind::P: return mat1(1, 0, 0, std::polar(1.0, params[0]));
    case GateKind::U2:
      return u3_matrix(3.141592653589793 / 2.0, params[0], params[1]);
    case GateKind::U3: return u3_matrix(params[0], params[1], params[2]);
    case GateKind::CX: return controlled(mat1(0, 1, 1, 0));
    case GateKind::CY: return controlled(mat1(0, -i, i, 0));
    case GateKind::CZ: return controlled(mat1(1, 0, 0, -1));
    case GateKind::CH: return controlled(mat1(is2, is2, is2, -is2));
    case GateKind::CP: return controlled(mat1(1, 0, 0, std::polar(1.0, params[0])));
    case GateKind::CRX:
      return controlled(gate_matrix(GateKind::RX, params, 1));
    case GateKind::CRY:
      return controlled(gate_matrix(GateKind::RY, params, 1));
    case GateKind::CRZ:
      return controlled(gate_matrix(GateKind::RZ, params, 1));
    case GateKind::SWAP: {
      Matrix m = Matrix::zeros(4, 4);
      m(0, 0) = 1;
      m(1, 2) = 1;
      m(2, 1) = 1;
      m(3, 3) = 1;
      return m;
    }
    case GateKind::RXX: {
      Matrix xx = kron(mat1(0, 1, 1, 0), mat1(0, 1, 1, 0));
      return two_qubit_rotation(xx, params[0]);
    }
    case GateKind::RYY: {
      Matrix yy = kron(mat1(0, -i, i, 0), mat1(0, -i, i, 0));
      return two_qubit_rotation(yy, params[0]);
    }
    case GateKind::RZZ: {
      Matrix zz = kron(mat1(1, 0, 0, -1), mat1(1, 0, 0, -1));
      return two_qubit_rotation(zz, params[0]);
    }
    case GateKind::CCX: {
      Matrix m = Matrix::identity(8);
      // controls = sub-bits 0,1; target = sub-bit 2. Swap |011> <-> |111>.
      m(3, 3) = 0;
      m(7, 7) = 0;
      m(3, 7) = 1;
      m(7, 3) = 1;
      return m;
    }
    case GateKind::CSWAP: {
      Matrix m = Matrix::identity(8);
      // control = sub-bit 0; swap sub-bits 1,2 when control set:
      // |c=1, b1=1, b2=0> = 011b? m index: bit0=c, bit1, bit2.
      // states with c=1: m in {1,3,5,7}; swap bit1<->bit2: 3 (011) <-> 5 (101).
      m(3, 3) = 0;
      m(5, 5) = 0;
      m(3, 5) = 1;
      m(5, 3) = 1;
      return m;
    }
    case GateKind::MCX: {
      QC_CHECK(arity >= 2);
      const std::size_t dim = std::size_t{1} << arity;
      Matrix m = Matrix::identity(dim);
      // Controls = sub-bits 0..arity-2, target = sub-bit arity-1.
      const std::size_t controls_mask = (std::size_t{1} << (arity - 1)) - 1;
      const std::size_t target_bit = std::size_t{1} << (arity - 1);
      const std::size_t a = controls_mask;               // all controls set, target 0
      const std::size_t b = controls_mask | target_bit;  // all controls set, target 1
      m(a, a) = 0;
      m(b, b) = 0;
      m(a, b) = 1;
      m(b, a) = 1;
      return m;
    }
    case GateKind::Barrier:
    case GateKind::Measure:
      QC_CHECK_MSG(false, "non-unitary gate has no matrix");
  }
  QC_CHECK_MSG(false, "unhandled gate kind");
  return {};
}

Matrix Gate::matrix() const { return gate_matrix(kind, params, qubits.size()); }

Gate Gate::inverse() const {
  QC_CHECK_MSG(gate_is_unitary(kind), "cannot invert a non-unitary gate");
  switch (kind) {
    case GateKind::S: return Gate(GateKind::Sdg, qubits);
    case GateKind::Sdg: return Gate(GateKind::S, qubits);
    case GateKind::T: return Gate(GateKind::Tdg, qubits);
    case GateKind::Tdg: return Gate(GateKind::T, qubits);
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CP:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
      return Gate(kind, qubits, {-params[0]});
    case GateKind::U2:
      // u2(phi, lambda)^-1 = u3(-pi/2, -lambda, -phi)
      return Gate(GateKind::U3, qubits, {-3.141592653589793 / 2.0, -params[1], -params[0]});
    case GateKind::U3:
      return Gate(GateKind::U3, qubits, {-params[0], -params[2], -params[1]});
    case GateKind::SX: {
      // sx^-1 = sxdg = rx(-pi/2) = u3(-pi/2, -pi/2, pi/2) up to global phase.
      return Gate(GateKind::U3, qubits,
                  {-3.141592653589793 / 2.0, -3.141592653589793 / 2.0,
                   3.141592653589793 / 2.0});
    }
    default:
      return *this;  // self-inverse kinds (X, Y, Z, H, CX, CZ, SWAP, CCX, MCX, ...)
  }
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os << gate_name(kind);
  if (!params.empty()) {
    os << '(';
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i) os << ", ";
      os << common::format_double(params[i]);
    }
    os << ')';
  }
  os << ' ';
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    if (i) os << ", ";
    os << 'q' << qubits[i];
  }
  return os.str();
}

}  // namespace qc::ir
