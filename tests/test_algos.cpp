// Unit + property tests for qc::algos — TFIM, Grover, multi-control Toffoli.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/grover.hpp"
#include "algos/mct.hpp"
#include "algos/tfim.hpp"
#include "common/error.hpp"
#include "metrics/distribution.hpp"
#include "metrics/process.hpp"
#include "sim/compiled.hpp"
#include "sim/observables.hpp"
#include "transpile/decompose.hpp"

namespace qc::algos {
namespace {

using ir::GateKind;
using ir::QuantumCircuit;
using linalg::Matrix;

TEST(Tfim, FieldRampIsLinear) {
  TfimModel m;
  EXPECT_NEAR(m.field_at(21), m.h_max, 1e-12);
  EXPECT_NEAR(m.field_at(7), m.h_max / 3.0, 1e-12);
  EXPECT_THROW(m.field_at(0), common::Error);
  EXPECT_THROW(m.field_at(22), common::Error);
}

TEST(Tfim, HamiltonianIsHermitianAndCorrectOnBasis) {
  TfimModel m;
  const Matrix h = m.hamiltonian(1.3);
  EXPECT_TRUE(h.is_hermitian(1e-12));
  // <000|H|000> = -J * (#bonds) (all spins aligned, X terms off-diagonal).
  EXPECT_NEAR(h(0, 0).real(), -m.coupling_j * 2.0, 1e-12);
}

TEST(Tfim, CircuitDepthGrowsLinearly) {
  TfimModel m;
  const auto c5 = m.circuit_up_to(5);
  const auto c10 = m.circuit_up_to(10);
  const auto cx5 = transpile::decompose_to_cx_u3(c5).count(GateKind::CX);
  const auto cx10 = transpile::decompose_to_cx_u3(c10).count(GateKind::CX);
  EXPECT_EQ(cx10, 2 * cx5);
  // 3 qubits: 2 bonds x 2 CX per RZZ per step.
  EXPECT_EQ(cx5, 20u);
}

TEST(Tfim, TrotterApproachesExactForSmallDt) {
  TfimModel coarse;
  coarse.dt = 0.15;
  TfimModel fine = coarse;
  fine.dt = 0.015;
  // Same evolution time horizon: compare one coarse step vs its exact
  // propagator, and check the error shrinks with dt.
  const double err_coarse = metrics::hs_distance(coarse.trotter_unitary_up_to(1),
                                                 coarse.exact_unitary_up_to(1));
  const double err_fine =
      metrics::hs_distance(fine.trotter_unitary_up_to(1), fine.exact_unitary_up_to(1));
  EXPECT_LT(err_fine, err_coarse / 5.0);
  EXPECT_LT(err_coarse, 0.1);  // already decent at the default dt
}

TEST(Tfim, MagnetizationStartsHighAndDecays) {
  TfimModel m;
  const double m1 = sim::average_z_magnetization(sim::ideal_probabilities(m.circuit_up_to(1)));
  EXPECT_GT(m1, 0.9);  // barely perturbed after one weak-field step

  const double m21 =
      sim::average_z_magnetization(sim::ideal_probabilities(m.circuit_up_to(21)));
  EXPECT_LT(m21, m1);  // strong transverse field has melted the order
}

TEST(Tfim, FourQubitVariant) {
  TfimModel m;
  m.num_qubits = 4;
  const auto qc = m.circuit_up_to(3);
  EXPECT_EQ(qc.num_qubits(), 4);
  EXPECT_TRUE(m.hamiltonian(0.5).is_hermitian(1e-12));
  EXPECT_TRUE(m.exact_unitary_up_to(3).is_unitary(1e-8));
}

TEST(Grover, OracleFlipsOnlyMarkedState) {
  const QuantumCircuit oracle = grover_oracle(3, 0b101);
  const Matrix u = oracle.to_unitary();
  for (std::size_t i = 0; i < 8; ++i) {
    const double expect = i == 0b101 ? -1.0 : 1.0;
    // Global phase may differ; compare ratios to entry 0.
    const auto rel = u(i, i) / u(0, 0);
    EXPECT_NEAR(rel.real(), i == 0b101 ? -1.0 : 1.0, 1e-8) << i;
    (void)expect;
  }
}

TEST(Grover, OptimalIterations) {
  EXPECT_EQ(grover_optimal_iterations(3), 2);
  EXPECT_EQ(grover_optimal_iterations(4), 3);
}

TEST(Grover, SimulatedSuccessMatchesFormula) {
  for (int iters : {1, 2}) {
    const QuantumCircuit qc = grover_circuit(3, 0b111, iters);
    const double p = metrics::success_probability(sim::ideal_probabilities(qc), 0b111);
    EXPECT_NEAR(p, grover_ideal_success(3, iters), 1e-9) << iters;
  }
  EXPECT_GT(grover_ideal_success(3, 2), 0.94);
}

TEST(Grover, WorksForAnyMarkedItem) {
  for (std::uint64_t marked = 0; marked < 8; ++marked) {
    const QuantumCircuit qc = grover_circuit(3, marked);
    EXPECT_GT(metrics::success_probability(sim::ideal_probabilities(qc), marked), 0.9)
        << marked;
  }
}

TEST(Grover, ReferenceCxCountInPaperRegime) {
  const auto low = transpile::decompose_to_cx_u3(grover_circuit(3, 0b111));
  // 2 iterations x (oracle CCZ + diffuser CCZ) x 6 CX = 24.
  EXPECT_EQ(low.count(GateKind::CX), 24u);
}

TEST(Mct, GateCircuitMatchesMatrix) {
  for (int n = 3; n <= 5; ++n) {
    const Matrix u = mct_gate_circuit(n).to_unitary();
    const Matrix expect = ir::gate_matrix(GateKind::MCX, {}, n);
    EXPECT_NEAR(u.max_abs_diff(expect), 0.0, 1e-12) << n;
  }
}

TEST(Mct, ReferenceCircuitIsFaithful) {
  for (int n = 3; n <= 5; ++n) {
    const double d = metrics::hs_distance(mct_gate_circuit(n).to_unitary(),
                                          mct_reference_circuit(n).to_unitary());
    EXPECT_LT(d, 1e-6) << n;
  }
}

TEST(Mct, SixCnotToffoliIsExact) {
  const QuantumCircuit t6 = toffoli_6cx();
  EXPECT_EQ(transpile::decompose_to_cx_u3(t6).count(GateKind::CX), 6u);
  QuantumCircuit ccx(3);
  ccx.ccx(0, 1, 2);
  EXPECT_LT(metrics::hs_distance(t6.to_unitary(), ccx.to_unitary()), 1e-7);
}

TEST(Mct, BatteryIdealDistributionMatchesSimulation) {
  for (int n : {3, 4, 5}) {
    const QuantumCircuit qc = mct_battery_circuit(n);
    const auto probs = sim::ideal_probabilities(qc);
    const auto ideal = mct_battery_ideal_distribution(n);
    ASSERT_EQ(probs.size(), ideal.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
      ASSERT_NEAR(probs[i], ideal[i], 1e-9) << "n=" << n << " i=" << i;
  }
}

TEST(Mct, BatteryDistributionStructure) {
  const auto ideal = mct_battery_ideal_distribution(4);
  // 8 outcomes at 1/8, 8 at zero; all-controls-set flips the target bit.
  int nonzero = 0;
  for (double p : ideal) nonzero += p > 0 ? 1 : 0;
  EXPECT_EQ(nonzero, 8);
  EXPECT_NEAR(ideal[0b0111], 0.0, 1e-12);  // controls 111 w/o flip: impossible
  EXPECT_NEAR(ideal[0b1111], 0.125, 1e-12);
  EXPECT_NEAR(ideal[0b0011], 0.125, 1e-12);
}

TEST(Mct, RandomNoiseJsAnchor) {
  EXPECT_NEAR(mct_random_noise_js(), 0.4645, 5e-4);
  // And it is what the metric actually reports against the fully mixed state.
  for (int n : {4, 5}) {
    const auto ideal = mct_battery_ideal_distribution(n);
    const auto mixed = metrics::uniform_distribution(ideal.size());
    EXPECT_NEAR(metrics::js_distance(ideal, mixed), mct_random_noise_js(), 1e-12);
  }
}

}  // namespace
}  // namespace qc::algos
