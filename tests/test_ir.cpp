// Unit + property tests for qc::ir — gates, circuits, DAG, QASM.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "ir/dag.hpp"
#include "ir/qasm.hpp"
#include "linalg/embed.hpp"
#include "linalg/factories.hpp"
#include "metrics/process.hpp"

namespace qc::ir {
namespace {

using linalg::cplx;
using linalg::Matrix;

constexpr double kPi = 3.14159265358979323846;

TEST(Gate, NamesRoundTrip) {
  for (GateKind k : {GateKind::X, GateKind::H, GateKind::RZ, GateKind::CX,
                     GateKind::CCX, GateKind::MCX, GateKind::Measure}) {
    EXPECT_EQ(gate_kind_from_name(gate_name(k)), k);
  }
  EXPECT_EQ(gate_kind_from_name("u1"), GateKind::P);
  EXPECT_EQ(gate_kind_from_name("U"), GateKind::U3);
  EXPECT_THROW(gate_kind_from_name("nope"), common::Error);
}

TEST(Gate, ArityValidation) {
  EXPECT_THROW(Gate(GateKind::CX, {0}), common::Error);
  EXPECT_THROW(Gate(GateKind::H, {0, 1}), common::Error);
  EXPECT_THROW(Gate(GateKind::RZ, {0}, {}), common::Error);       // missing param
  EXPECT_THROW(Gate(GateKind::CX, {1, 1}), common::Error);        // duplicate
  EXPECT_THROW(Gate(GateKind::MCX, {0}), common::Error);          // needs >= 2
  EXPECT_NO_THROW(Gate(GateKind::MCX, {0, 1, 2, 3}));
}

TEST(Gate, KnownMatrices) {
  EXPECT_NEAR(Gate(GateKind::X, {0}).matrix().max_abs_diff(linalg::pauli_x()), 0.0,
              1e-12);
  EXPECT_NEAR(Gate(GateKind::H, {0}).matrix().max_abs_diff(linalg::hadamard2()), 0.0,
              1e-12);
  // S^2 = Z, T^2 = S.
  const Matrix s = Gate(GateKind::S, {0}).matrix();
  const Matrix t = Gate(GateKind::T, {0}).matrix();
  EXPECT_NEAR((s * s).max_abs_diff(linalg::pauli_z()), 0.0, 1e-12);
  EXPECT_NEAR((t * t).max_abs_diff(s), 0.0, 1e-12);
  // SX^2 = X.
  const Matrix sx = Gate(GateKind::SX, {0}).matrix();
  EXPECT_NEAR((sx * sx).max_abs_diff(linalg::pauli_x()), 0.0, 1e-12);
}

TEST(Gate, CxPermutesCorrectBasisStates) {
  const Matrix cx = Gate(GateKind::CX, {0, 1}).matrix();
  // Sub-basis: bit0 = control. |c=1,t=0> = index 1 -> |c=1,t=1> = index 3.
  EXPECT_EQ(cx(3, 1), (cplx{1, 0}));
  EXPECT_EQ(cx(1, 3), (cplx{1, 0}));
  EXPECT_EQ(cx(0, 0), (cplx{1, 0}));
  EXPECT_EQ(cx(2, 2), (cplx{1, 0}));
}

TEST(Gate, U3ReproducesNamedGates) {
  // u3(pi,0,pi) = X ; u3(pi/2,0,pi) = H (up to global phase).
  const Matrix x = Gate(GateKind::U3, {0}, {kPi, 0, kPi}).matrix();
  EXPECT_LT(metrics::hs_distance(x, linalg::pauli_x()), 1e-7);
  const Matrix h = Gate(GateKind::U3, {0}, {kPi / 2, 0, kPi}).matrix();
  EXPECT_LT(metrics::hs_distance(h, linalg::hadamard2()), 1e-7);
}

TEST(Gate, RotationsComposeAdditively) {
  const Matrix a = Gate(GateKind::RY, {0}, {0.3}).matrix();
  const Matrix b = Gate(GateKind::RY, {0}, {0.5}).matrix();
  const Matrix c = Gate(GateKind::RY, {0}, {0.8}).matrix();
  EXPECT_NEAR((b * a).max_abs_diff(c), 0.0, 1e-12);
}

TEST(Gate, EveryUnitaryKindHasUnitaryMatrix) {
  common::Rng rng(3);
  for (const auto& kind :
       {GateKind::I,   GateKind::X,    GateKind::Y,   GateKind::Z,   GateKind::H,
        GateKind::S,   GateKind::Sdg,  GateKind::T,   GateKind::Tdg, GateKind::SX,
        GateKind::RX,  GateKind::RY,   GateKind::RZ,  GateKind::P,   GateKind::U2,
        GateKind::U3,  GateKind::CX,   GateKind::CY,  GateKind::CZ,  GateKind::CH,
        GateKind::CP,  GateKind::CRX,  GateKind::CRY, GateKind::CRZ, GateKind::SWAP,
        GateKind::RXX, GateKind::RYY,  GateKind::RZZ, GateKind::CCX,
        GateKind::CSWAP}) {
    std::vector<double> params;
    for (int p = 0; p < gate_num_params(kind); ++p)
      params.push_back(rng.uniform(-kPi, kPi));
    const auto arity = static_cast<std::size_t>(gate_num_qubits(kind));
    EXPECT_TRUE(gate_matrix(kind, params, arity).is_unitary(1e-9))
        << gate_name(kind);
  }
}

TEST(Gate, InversePropertyForAllKinds) {
  common::Rng rng(4);
  for (const auto& kind :
       {GateKind::X,   GateKind::H,   GateKind::S,   GateKind::Sdg, GateKind::T,
        GateKind::SX,  GateKind::RX,  GateKind::RY,  GateKind::RZ,  GateKind::P,
        GateKind::U2,  GateKind::U3,  GateKind::CX,  GateKind::CZ,  GateKind::CP,
        GateKind::CRZ, GateKind::SWAP, GateKind::RZZ, GateKind::CCX}) {
    std::vector<double> params;
    for (int p = 0; p < gate_num_params(kind); ++p)
      params.push_back(rng.uniform(-kPi, kPi));
    std::vector<int> qubits;
    for (int q = 0; q < gate_num_qubits(kind); ++q) qubits.push_back(q);
    const Gate g(kind, qubits, params);
    const Matrix prod = g.inverse().matrix() * g.matrix();
    EXPECT_LT(metrics::hs_distance(prod, Matrix::identity(prod.rows())), 1e-7)
        << gate_name(kind);
  }
}

TEST(Gate, McxMatrixFlipsOnlyAllOnesControls) {
  const Matrix m = gate_matrix(GateKind::MCX, {}, 4);  // 3 controls + target
  // Controls = sub-bits 0..2; target = bit 3. |0111> (7) <-> |1111> (15).
  EXPECT_EQ(m(7, 15), (cplx{1, 0}));
  EXPECT_EQ(m(15, 7), (cplx{1, 0}));
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 7 || i == 15) continue;
    EXPECT_EQ(m(i, i), (cplx{1, 0})) << i;
  }
}

TEST(Circuit, BuilderAndCounts) {
  QuantumCircuit qc(3);
  qc.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2).ccx(0, 1, 2);
  EXPECT_EQ(qc.size(), 5u);
  EXPECT_EQ(qc.count(GateKind::CX), 2u);
  EXPECT_FALSE(qc.in_cx_u3_basis());
  EXPECT_FALSE(qc.has_measurements());
  qc.measure_all();
  EXPECT_TRUE(qc.has_measurements());
}

TEST(Circuit, RejectsOutOfRangeOperands) {
  QuantumCircuit qc(2);
  EXPECT_THROW(qc.x(2), common::Error);
  EXPECT_THROW(qc.cx(0, 5), common::Error);
}

TEST(Circuit, DepthComputation) {
  QuantumCircuit qc(3);
  qc.h(0).h(1).h(2);          // depth 1 (parallel)
  qc.cx(0, 1);                // depth 2
  qc.cx(1, 2);                // depth 3
  qc.x(0);                    // fits at depth 3 on wire 0
  EXPECT_EQ(qc.depth(), 3u);
}

TEST(Circuit, ToUnitaryMatchesEmbeddedProduct) {
  common::Rng rng(7);
  QuantumCircuit qc(3);
  qc.h(0).cx(0, 1).rz(0.7, 1).cx(1, 2).ry(0.3, 0).cz(0, 2);
  Matrix expect = Matrix::identity(8);
  for (const Gate& g : qc.gates())
    expect = linalg::embed(g.matrix(), g.qubits, 3) * expect;
  EXPECT_NEAR(qc.to_unitary().max_abs_diff(expect), 0.0, 1e-10);
}

TEST(Circuit, InverseGivesIdentity) {
  QuantumCircuit qc(3);
  qc.h(0).t(1).cx(0, 1).rzz(0.4, 1, 2).u3(0.1, 0.2, 0.3, 2).ccx(0, 1, 2);
  QuantumCircuit both = qc;
  both.append(qc.inverse());
  EXPECT_LT(metrics::hs_distance(both.to_unitary(), Matrix::identity(8)), 1e-7);
}

TEST(Circuit, InverseWithMeasureThrows) {
  QuantumCircuit qc(2);
  qc.h(0).measure_all();
  EXPECT_THROW(qc.inverse(), common::Error);
}

TEST(Circuit, UnitaryPartStripsNonUnitary) {
  QuantumCircuit qc(2);
  qc.h(0).barrier();
  qc.measure_all();
  const QuantumCircuit u = qc.unitary_part();
  EXPECT_EQ(u.size(), 1u);
}

TEST(Circuit, NullCircuitSemantics) {
  QuantumCircuit null_qc;
  EXPECT_TRUE(null_qc.is_null());
  EXPECT_TRUE(null_qc.empty());
  QuantumCircuit real(2);
  EXPECT_FALSE(real.is_null());
}

TEST(Dag, WiresFollowProgramOrder) {
  QuantumCircuit qc(3);
  qc.h(0);          // 0
  qc.cx(0, 1);      // 1
  qc.x(1);          // 2
  qc.cx(1, 2);      // 3
  const DagView dag(qc);
  EXPECT_EQ(dag.next_on_qubit(0, 0), 1u);
  EXPECT_EQ(dag.next_on_qubit(1, 1), 2u);
  EXPECT_EQ(dag.next_on_qubit(2, 1), 3u);
  EXPECT_EQ(dag.next_on_qubit(3, 2), DagView::kNone);
}

TEST(Dag, RejectsWrongQubitQuery) {
  QuantumCircuit qc(2);
  qc.h(0);
  const DagView dag(qc);
  EXPECT_THROW(dag.next_on_qubit(0, 1), common::Error);
}

TEST(Qasm, EmitsExpectedDialect) {
  QuantumCircuit qc(2, "bell");
  qc.h(0).cx(0, 1).measure_all();
  const std::string text = to_qasm(qc);
  EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(text.find("qreg q[2];"), std::string::npos);
  EXPECT_NE(text.find("h q[0];"), std::string::npos);
  EXPECT_NE(text.find("cx q[0],q[1];"), std::string::npos);
  EXPECT_NE(text.find("measure q[0] -> c[0];"), std::string::npos);
}

TEST(Qasm, RoundTripPreservesUnitary) {
  QuantumCircuit qc(3);
  qc.h(0).u3(0.1, -0.7, 2.2, 1).cx(0, 2).rz(kPi / 3, 2).ccx(0, 1, 2).swap(1, 2);
  const QuantumCircuit back = from_qasm(to_qasm(qc));
  EXPECT_EQ(back.num_qubits(), 3);
  EXPECT_LT(metrics::hs_distance(qc.to_unitary(), back.to_unitary()), 1e-7);
}

TEST(Qasm, ParsesPiExpressions) {
  const QuantumCircuit qc = from_qasm(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(pi/2) q[0];\n"
      "rx(-3*pi/4) q[0];\nry(pi) q[0];\n");
  EXPECT_NEAR(qc.gate(0).params[0], kPi / 2, 1e-12);
  EXPECT_NEAR(qc.gate(1).params[0], -3 * kPi / 4, 1e-12);
  EXPECT_NEAR(qc.gate(2).params[0], kPi, 1e-12);
}

TEST(Qasm, ParsesScientificNotation) {
  const QuantumCircuit qc =
      from_qasm("qreg q[1];\nrz(1.5e-3) q[0];\nrx(-2E2) q[0];\n");
  EXPECT_NEAR(qc.gate(0).params[0], 1.5e-3, 1e-15);
  EXPECT_NEAR(qc.gate(1).params[0], -200.0, 1e-12);
}

TEST(Qasm, RejectsMalformedInput) {
  EXPECT_THROW(from_qasm("qreg q[2];\nh q[0]\n"), common::Error);   // missing ;
  EXPECT_THROW(from_qasm("h q[0];\n"), common::Error);              // no qreg
  EXPECT_THROW(from_qasm("qreg q[1];\nzz q[0];\n"), common::Error); // bad gate
  // Registers and operands are whole decimal numbers inside their range.
  EXPECT_THROW(from_qasm("qreg q[abc];\nh q[0];\n"), common::ContractError);
  EXPECT_THROW(from_qasm("qreg q[2];\nh q[1x];\n"), common::ContractError);
  EXPECT_THROW(from_qasm("qreg q[2];\nh q[2];\n"), common::ContractError);
  EXPECT_THROW(from_qasm("qreg q[2];\nh q[-1];\n"), common::ContractError);
  EXPECT_THROW(from_qasm("qreg q[257];\nh q[0];\n"), common::ContractError);
  EXPECT_THROW(from_qasm("qreg q[1];\nrz(inf) q[0];\n"), common::ContractError);
  EXPECT_THROW(from_qasm("qreg q[1];\nrz(1e300*1e300) q[0];\n"), common::ContractError);
}

}  // namespace
}  // namespace qc::ir
