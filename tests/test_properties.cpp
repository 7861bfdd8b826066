// Cross-module property tests: randomized and parameterized sweeps over the
// invariants the figure pipeline rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "ir/qasm.hpp"
#include "linalg/factories.hpp"
#include "metrics/distribution.hpp"
#include "metrics/process.hpp"
#include "noise/catalog.hpp"
#include "noise/channel.hpp"
#include "sim/compiled.hpp"
#include "sim/density_matrix.hpp"
#include "transpile/decompose.hpp"
#include "transpile/peephole.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/routing.hpp"

namespace qc {
namespace {

using ir::GateKind;
using ir::QuantumCircuit;
using linalg::Matrix;

namespace ref {

/// rho = |psi><psi| for psi = qc|0...0>, the first column of qc's unitary.
sim::DensityMatrix pure_state(const QuantumCircuit& qc) {
  const Matrix u = qc.to_unitary();
  std::vector<linalg::cplx> psi(u.rows());
  for (std::size_t i = 0; i < psi.size(); ++i) psi[i] = u(i, 0);
  return sim::DensityMatrix(qc.num_qubits(), psi);
}

/// rho := sum_i K_i rho K_i†, the Kraus set planned for this call only.
void apply_channel(sim::DensityMatrix& rho, const noise::Channel& channel,
                   const std::vector<int>& qubits) {
  std::vector<linalg::KernelPlan> plans;
  for (const Matrix& k : channel.kraus())
    plans.push_back(linalg::plan_kernel(k, qubits, rho.rho().rows()));
  rho.apply_kraus(channel.kraus(), plans, nullptr, qubits);
}

}  // namespace ref

QuantumCircuit random_named_circuit(int num_qubits, int num_gates, common::Rng& rng) {
  QuantumCircuit qc(num_qubits);
  for (int i = 0; i < num_gates; ++i) {
    switch (rng.uniform_int(8)) {
      case 0: qc.h(static_cast<int>(rng.uniform_int(num_qubits))); break;
      case 1: qc.t(static_cast<int>(rng.uniform_int(num_qubits))); break;
      case 2:
        qc.rz(rng.uniform(-3, 3), static_cast<int>(rng.uniform_int(num_qubits)));
        break;
      case 3:
        qc.ry(rng.uniform(-3, 3), static_cast<int>(rng.uniform_int(num_qubits)));
        break;
      case 4:
      case 5: {
        int a = static_cast<int>(rng.uniform_int(num_qubits));
        int b = static_cast<int>(rng.uniform_int(num_qubits));
        while (b == a) b = static_cast<int>(rng.uniform_int(num_qubits));
        qc.cx(a, b);
        break;
      }
      case 6: {
        int a = static_cast<int>(rng.uniform_int(num_qubits));
        int b = static_cast<int>(rng.uniform_int(num_qubits));
        while (b == a) b = static_cast<int>(rng.uniform_int(num_qubits));
        qc.rzz(rng.uniform(-2, 2), a, b);
        break;
      }
      default:
        qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3),
              static_cast<int>(rng.uniform_int(num_qubits)));
    }
  }
  return qc;
}

// ---- randomized round-trip properties ---------------------------------------

class RandomCircuitTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitTest, QasmRoundTripPreservesUnitary) {
  common::Rng rng(100 + GetParam());
  const QuantumCircuit qc = random_named_circuit(3, 25, rng);
  const QuantumCircuit back = ir::from_qasm(ir::to_qasm(qc));
  EXPECT_LT(metrics::hs_distance(qc.to_unitary(), back.to_unitary()), 1e-7);
}

TEST_P(RandomCircuitTest, PeepholePreservesUnitary) {
  common::Rng rng(200 + GetParam());
  const QuantumCircuit qc = random_named_circuit(3, 30, rng);
  const QuantumCircuit basis = transpile::decompose_to_cx_u3(qc);
  const QuantumCircuit opt = transpile::optimize_peephole(basis);
  EXPECT_LT(metrics::hs_distance(basis.to_unitary(), opt.to_unitary()), 1e-6);
  EXPECT_LE(opt.size(), basis.size());
  EXPECT_LE(opt.count(GateKind::CX), basis.count(GateKind::CX));
}

TEST_P(RandomCircuitTest, TranspilePipelinePreservesOutput) {
  common::Rng rng(300 + GetParam());
  const QuantumCircuit qc = random_named_circuit(3, 20, rng);
  const auto device = noise::device_by_name("ourense");
  for (int level : {1, 3}) {
    transpile::TranspileOptions opts;
    opts.optimization_level = level;
    const auto tr = transpile::transpile(qc, device, opts);
    const auto physical = transpile::unpermute_distribution(
        sim::ideal_probabilities(tr.circuit), tr.wire_of_virtual);
    const auto expect = sim::ideal_probabilities(transpile::decompose_to_cx_u3(qc));
    for (std::size_t i = 0; i < expect.size(); ++i)
      ASSERT_NEAR(physical[i], expect[i], 1e-7) << "level " << level;
  }
}

TEST_P(RandomCircuitTest, InverseComposesToIdentity) {
  common::Rng rng(400 + GetParam());
  const QuantumCircuit qc = random_named_circuit(3, 15, rng);
  QuantumCircuit both = qc;
  both.append(qc.inverse());
  EXPECT_LT(metrics::hs_distance(both.to_unitary(), Matrix::identity(8)), 1e-6);
}

TEST_P(RandomCircuitTest, DensityMatrixAgreesWithStateVector) {
  common::Rng rng(500 + GetParam());
  const QuantumCircuit qc = random_named_circuit(4, 25, rng);
  const auto ps = sim::ideal_probabilities(qc);
  const auto pd = sim::density_matrix_probabilities(
      sim::compile_noisy_circuit(qc, noise::NoiseModel::ideal(4)));
  for (std::size_t i = 0; i < ps.size(); ++i) ASSERT_NEAR(ps[i], pd[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitTest, ::testing::Range(0, 8));

// ---- channel-family properties -----------------------------------------------

class ChannelFamilyTest : public ::testing::TestWithParam<double> {};

TEST_P(ChannelFamilyTest, ChannelsPreserveDensityMatrixValidity) {
  const double p = GetParam();
  common::Rng rng(42);
  // Random pure state rho.
  QuantumCircuit prep(2);
  prep.u3(rng.uniform(0, 3), 0.3, -0.2, 0).cx(0, 1);
  const sim::DensityMatrix dm = ref::pure_state(prep);

  for (const auto& ch :
       {noise::depolarizing(p, 1), noise::amplitude_damping(p),
        noise::phase_damping(p), noise::bit_flip(p), noise::phase_flip(p)}) {
    sim::DensityMatrix probe = dm;
    ref::apply_channel(probe, ch, {0});
    EXPECT_NEAR(probe.trace_real(), 1.0, 1e-9);
    EXPECT_LE(probe.purity(), 1.0 + 1e-9);
    EXPECT_GE(probe.purity(), 0.25 - 1e-9);
    for (double prob : probe.probabilities()) EXPECT_GE(prob, -1e-10);
  }
}

TEST_P(ChannelFamilyTest, DepolarizingShrinksHsOverlapLinearly) {
  const double p = GetParam();
  // rho_+ off-diagonal scales by exactly (1 - p).
  QuantumCircuit plus(1);
  plus.h(0);
  sim::DensityMatrix dm = ref::pure_state(plus);
  ref::apply_channel(dm, noise::depolarizing(p, 1), {0});
  EXPECT_NEAR(std::abs(dm.rho()(0, 1)), 0.5 * (1.0 - p), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ChannelFamilyTest,
                         ::testing::Values(0.0, 0.05, 0.12, 0.24, 0.6, 1.0));

// ---- catalog-wide device properties -------------------------------------------

class CatalogDeviceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CatalogDeviceTest, SnapshotIsSelfConsistent) {
  const auto device = noise::device_by_name(GetParam());
  device.validate();
  EXPECT_TRUE(device.coupling.is_connected());
  for (int q = 0; q < device.num_qubits(); ++q) {
    EXPECT_GT(device.t1[q], 1000.0);                     // > 1 us
    EXPECT_LE(device.readout[q].average(), 0.25);        // physical readout
  }
}

TEST_P(CatalogDeviceTest, NoiseModelDegradesABellPair) {
  const auto device = noise::device_by_name(GetParam());
  const auto model = noise::simulator_noise_model(device);
  ir::QuantumCircuit bell(2);
  bell.u3(3.14159265 / 2, 0, 3.14159265, 0);
  bell.cx(0, 1);
  const auto probs =
      sim::density_matrix_probabilities(sim::compile_noisy_circuit(bell, model));
  // Still mostly Bell-like, but measurably degraded.
  EXPECT_GT(probs[0] + probs[3], 0.8);
  EXPECT_LT(probs[0] + probs[3], 1.0 - 1e-4);
}

TEST_P(CatalogDeviceTest, HardwareModelIsStrictlyNoisier) {
  const auto device = noise::device_by_name(GetParam());
  ir::QuantumCircuit probe(2);
  for (int i = 0; i < 6; ++i) {
    probe.cx(0, 1);
    probe.u3(0.4, 0.1, -0.3, 0);
  }
  const auto reference = sim::ideal_probabilities(probe);
  const auto noisy_tvd = [&](const noise::NoiseModel& model) {
    return metrics::total_variation(
        reference,
        sim::density_matrix_probabilities(sim::compile_noisy_circuit(probe, model)));
  };
  const double sim_tvd = noisy_tvd(noise::simulator_noise_model(device));
  const double hw_tvd = noisy_tvd(noise::hardware_noise_model(device));
  EXPECT_GT(hw_tvd, sim_tvd);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, CatalogDeviceTest,
                         ::testing::Values("manhattan", "toronto", "santiago", "rome",
                                           "ourense"),
                         [](const auto& p) { return std::string(p.param); });

// ---- routing on every catalog topology -----------------------------------------

class RoutingTopologyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoutingTopologyTest, AllToAllCircuitRoutesEverywhere) {
  const auto device = noise::device_by_name(GetParam());
  common::Rng rng(7);
  // A 4-qubit circuit using every pair (worst case for routing).
  QuantumCircuit qc(4);
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) qc.cx(a, b).rz(rng.uniform(-1, 1), b);
  const auto tr = transpile::transpile(qc, device, {});
  for (const auto& g : tr.circuit.gates()) {
    if (g.kind != GateKind::CX) continue;
    const int pa = tr.active_physical[g.qubits[0]];
    const int pb = tr.active_physical[g.qubits[1]];
    ASSERT_TRUE(device.coupling.are_coupled(pa, pb));
  }
  // Output equivalence.
  const auto got = transpile::unpermute_distribution(
      sim::ideal_probabilities(tr.circuit), tr.wire_of_virtual);
  const auto expect = sim::ideal_probabilities(transpile::decompose_to_cx_u3(qc));
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_NEAR(got[i], expect[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, RoutingTopologyTest,
                         ::testing::Values("manhattan", "toronto", "santiago", "rome",
                                           "ourense"),
                         [](const auto& p) { return std::string(p.param); });

// ---- distribution-metric lattice ------------------------------------------------

TEST(MetricBounds, PinskersInequalityHolds) {
  common::Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> p(8), q(8);
    for (auto& v : p) v = rng.uniform() + 0.01;
    for (auto& v : q) v = rng.uniform() + 0.01;
    p = metrics::normalized(p);
    q = metrics::normalized(q);
    // JS distance is a metric bounded by sqrt(ln 2).
    EXPECT_LE(metrics::js_distance(p, q), std::sqrt(std::log(2.0)) + 1e-12);
  }
}

TEST(MetricBounds, JsTriangleInequality) {
  common::Rng rng(12);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> p(6), q(6), r(6);
    for (auto& v : p) v = rng.uniform() + 0.01;
    for (auto& v : q) v = rng.uniform() + 0.01;
    for (auto& v : r) v = rng.uniform() + 0.01;
    p = metrics::normalized(p);
    q = metrics::normalized(q);
    r = metrics::normalized(r);
    EXPECT_LE(metrics::js_distance(p, r),
              metrics::js_distance(p, q) + metrics::js_distance(q, r) + 1e-12);
  }
}

TEST(MetricBounds, HsDistanceTriangleInequality) {
  common::Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    const Matrix a = linalg::random_unitary(4, rng);
    const Matrix b = linalg::random_unitary(4, rng);
    const Matrix c = linalg::random_unitary(4, rng);
    EXPECT_LE(metrics::hs_distance(a, c),
              metrics::hs_distance(a, b) + metrics::hs_distance(b, c) + 1e-9);
  }
}

}  // namespace
}  // namespace qc
