// Unit + property tests for qc::transpile — ZYZ, decomposition, layout,
// routing, peephole, pipelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "linalg/factories.hpp"
#include "metrics/process.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "transpile/decompose.hpp"
#include "transpile/euler.hpp"
#include "transpile/layout.hpp"
#include "transpile/peephole.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/routing.hpp"

namespace qc::transpile {
namespace {

using ir::GateKind;
using ir::QuantumCircuit;
using linalg::cplx;
using linalg::Matrix;

constexpr double kPi = 3.14159265358979323846;

TEST(Zyz, ReconstructsRandomUnitaries) {
  common::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Matrix u = linalg::random_unitary(2, rng);
    const ZyzAngles a = zyz_decompose(u);
    Matrix rebuilt = ir::gate_matrix(GateKind::RZ, {a.phi}, 1) *
                     ir::gate_matrix(GateKind::RY, {a.theta}, 1) *
                     ir::gate_matrix(GateKind::RZ, {a.lambda}, 1);
    rebuilt *= std::polar(1.0, a.alpha);
    ASSERT_NEAR(rebuilt.max_abs_diff(u), 0.0, 1e-8) << "trial " << i;
  }
}

TEST(Zyz, HandlesDiagonalAndAntiDiagonal) {
  // Diagonal: RZ.
  const Matrix rz = ir::gate_matrix(GateKind::RZ, {0.9}, 1);
  const ZyzAngles a = zyz_decompose(rz);
  EXPECT_NEAR(a.theta, 0.0, 1e-9);
  // Anti-diagonal: X.
  const ZyzAngles b = zyz_decompose(linalg::pauli_x());
  EXPECT_NEAR(b.theta, kPi, 1e-9);
}

TEST(Zyz, U3FromMatrixDropsOnlyPhase) {
  common::Rng rng(2);
  const Matrix u = linalg::random_unitary(2, rng);
  const ir::Gate g = u3_from_matrix(u, 0);
  EXPECT_LT(metrics::hs_distance(g.matrix(), u), 1e-7);
}

TEST(Zyz, IdentityDetection) {
  EXPECT_TRUE(is_identity_up_to_phase(Matrix::identity(2) * std::polar(1.0, 0.4)));
  EXPECT_FALSE(is_identity_up_to_phase(linalg::pauli_x()));
}

// Every decomposable kind lowers to {CX,U3} with the same unitary (up to
// global phase).
class DecomposeKindTest : public ::testing::TestWithParam<ir::GateKind> {};

TEST_P(DecomposeKindTest, PreservesUnitary) {
  common::Rng rng(3);
  const GateKind kind = GetParam();
  const int arity = ir::gate_num_qubits(kind);
  std::vector<double> params;
  for (int p = 0; p < ir::gate_num_params(kind); ++p)
    params.push_back(rng.uniform(-kPi, kPi));
  std::vector<int> qubits;
  for (int q = 0; q < arity; ++q) qubits.push_back(q);

  QuantumCircuit qc(std::max(arity, 2));
  qc.append(ir::Gate(kind, qubits, params));
  const QuantumCircuit low = decompose_to_cx_u3(qc);
  EXPECT_TRUE(low.in_cx_u3_basis());
  EXPECT_LT(metrics::hs_distance(qc.to_unitary(), low.to_unitary()), 1e-7)
      << ir::gate_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DecomposeKindTest,
    ::testing::Values(GateKind::X, GateKind::Y, GateKind::Z, GateKind::H, GateKind::S,
                      GateKind::Sdg, GateKind::T, GateKind::Tdg, GateKind::SX,
                      GateKind::RX, GateKind::RY, GateKind::RZ, GateKind::P,
                      GateKind::U2, GateKind::U3, GateKind::CY, GateKind::CZ,
                      GateKind::CH, GateKind::CP, GateKind::CRX, GateKind::CRY,
                      GateKind::CRZ, GateKind::SWAP, GateKind::RXX, GateKind::RYY,
                      GateKind::RZZ, GateKind::CCX, GateKind::CSWAP),
    [](const auto& p) { return ir::gate_name(p.param); });

TEST(Decompose, CcxUsesSixCx) {
  QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  EXPECT_EQ(decompose_to_cx_u3(qc).count(GateKind::CX), 6u);
}

TEST(Decompose, McxNoAncillaMatchesGateMatrix) {
  for (int n = 3; n <= 5; ++n) {
    QuantumCircuit qc(n);
    std::vector<int> controls;
    for (int q = 0; q + 1 < n; ++q) controls.push_back(q);
    qc.mcx(controls, n - 1);
    const QuantumCircuit low = decompose_to_cx_u3(qc);
    EXPECT_LT(metrics::hs_distance(qc.to_unitary(), low.to_unitary()), 1e-6) << n;
    EXPECT_TRUE(low.in_cx_u3_basis());
  }
}

TEST(Decompose, McxCxCountGrowsSteeply) {
  auto count = [](int n) {
    QuantumCircuit qc(n);
    std::vector<int> controls;
    for (int q = 0; q + 1 < n; ++q) controls.push_back(q);
    qc.mcx(controls, n - 1);
    return decompose_to_cx_u3(qc).count(GateKind::CX);
  };
  EXPECT_EQ(count(3), 6u);
  EXPECT_GT(count(4), 2 * count(3));
  EXPECT_GT(count(5), 2 * count(4));
}

TEST(Decompose, ControlledUnitaryConstruction) {
  common::Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const Matrix u = linalg::random_unitary(2, rng);
    QuantumCircuit out(2);
    emit_controlled_unitary(out, u, 0, 1);
    // Expected controlled-U with control = qubit 0.
    Matrix expect = Matrix::identity(4);
    expect(1, 1) = u(0, 0);
    expect(1, 3) = u(0, 1);
    expect(3, 1) = u(1, 0);
    expect(3, 3) = u(1, 1);
    ASSERT_LT(metrics::hs_distance(out.to_unitary(), expect), 1e-7);
  }
}

TEST(Decompose, MeasureAndBarrierPassThrough) {
  QuantumCircuit qc(2);
  qc.h(0).barrier();
  qc.measure_all();
  const QuantumCircuit low = decompose_to_cx_u3(qc);
  EXPECT_EQ(low.count(GateKind::Barrier), 1u);
  EXPECT_TRUE(low.has_measurements());
}

TEST(Peephole, FusesU3Runs) {
  QuantumCircuit qc(1);
  qc.h(0).t(0).h(0).s(0);
  const Matrix before = qc.to_unitary();
  QuantumCircuit opt = decompose_to_cx_u3(qc);
  EXPECT_TRUE(fuse_single_qubit_runs(opt));
  EXPECT_EQ(opt.size(), 1u);
  // hs_distance ~ sqrt(2 eps) near fidelity 1, so one ulp of fidelity error
  // is already ~1.5e-8; 1e-7 is the tightest machine-robust bound.
  EXPECT_LT(metrics::hs_distance(before, opt.to_unitary()), 1e-7);
}

TEST(Peephole, DeletesIdentityRuns) {
  QuantumCircuit qc(1);
  qc.x(0).x(0);
  QuantumCircuit opt = decompose_to_cx_u3(qc);
  fuse_single_qubit_runs(opt);
  EXPECT_EQ(opt.size(), 0u);
}

TEST(Peephole, CancelsAdjacentCx) {
  QuantumCircuit qc(3);
  qc.cx(0, 1).cx(0, 1).cx(1, 2);
  EXPECT_TRUE(cancel_adjacent_cx(qc));
  EXPECT_EQ(qc.count(GateKind::CX), 1u);
  EXPECT_EQ(qc.gate(0).qubits, (std::vector<int>{1, 2}));
}

TEST(Peephole, DoesNotCancelAcrossInterferingGates) {
  QuantumCircuit qc(2);
  qc.cx(0, 1).u3(0.5, 0, 0, 1).cx(0, 1);
  EXPECT_FALSE(cancel_adjacent_cx(qc));
  EXPECT_EQ(qc.count(GateKind::CX), 2u);
}

TEST(Peephole, FixpointPreservesUnitaryAndShrinks) {
  common::Rng rng(5);
  QuantumCircuit qc(3);
  qc.h(0).h(1).cx(0, 1).cx(0, 1).t(0).tdg(0).cx(1, 2).rz(0.3, 2).rz(-0.3, 2);
  const Matrix before = qc.to_unitary();
  const QuantumCircuit opt = optimize_peephole(decompose_to_cx_u3(qc));
  EXPECT_LT(metrics::hs_distance(before, opt.to_unitary()), 1e-7);
  EXPECT_LT(opt.size(), decompose_to_cx_u3(qc).size());
  EXPECT_EQ(opt.count(GateKind::CX), 1u);  // only cx(1,2) survives
}

TEST(Layout, TrivialIsIdentity) {
  const auto device = noise::device_by_name("ourense");
  QuantumCircuit qc(3);
  qc.cx(0, 1);
  EXPECT_EQ(trivial_layout(qc, device), (Layout{0, 1, 2}));
}

TEST(Layout, NoiseAwarePrefersLowErrorEdges) {
  const auto device = noise::device_by_name("toronto");
  QuantumCircuit qc(2);
  for (int i = 0; i < 10; ++i) qc.cx(0, 1);
  const Layout layout = noise_aware_layout(qc, device);
  ASSERT_EQ(layout.size(), 2u);
  // Must be a coupled pair, and among the cheapest few edges.
  EXPECT_TRUE(device.coupling.are_coupled(layout[0], layout[1]));
  const double chosen = device.cx_error_for(layout[0], layout[1]);
  double best = 1.0;
  for (double e : device.cx_error) best = std::min(best, e);
  EXPECT_LT(chosen, best * 1.5);
}

TEST(Layout, CostChargesRoutingForUncoupledPairs) {
  const auto device = noise::device_by_name("santiago");  // line
  QuantumCircuit qc(2);
  qc.cx(0, 1);
  const double near_cost = layout_cost(qc, device, {0, 1});
  const double far_cost = layout_cost(qc, device, {0, 4});
  EXPECT_GT(far_cost, near_cost);
}

TEST(Layout, NoiseAwareIsTheFirstArgminOfLayoutCost) {
  // The reference search: every permutation of every connected subset, in
  // enumeration order, scored by the public layout_cost; first strict minimum.
  const auto reference = [](const QuantumCircuit& qc, const noise::DeviceProperties& device,
                            std::size_t max_candidates) {
    Layout best;
    double best_cost = 0.0;
    std::size_t tried = 0;
    for (const auto& subset : device.coupling.connected_subsets(qc.num_qubits())) {
      std::vector<int> perm = subset;
      std::sort(perm.begin(), perm.end());
      do {
        if (tried++ >= max_candidates) break;
        const double cost = layout_cost(qc, device, perm);
        if (best.empty() || cost < best_cost) {
          best = perm;
          best_cost = cost;
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
      if (tried >= max_candidates) break;
    }
    return best;
  };
  common::Rng rng(7);
  for (const char* name : {"ourense", "toronto", "manhattan"}) {
    const auto device = noise::device_by_name(name);
    for (int n = 2; n <= 4; ++n) {
      QuantumCircuit qc(n);
      for (int i = 0; i < 4 * n; ++i) {
        const int a = static_cast<int>(rng.uniform_int(n));
        const int b = (a + 1 + static_cast<int>(rng.uniform_int(n - 1))) % n;
        qc.cx(a, b).u3(0.1 * i, 0.2, 0.3, a);
      }
      for (const std::size_t cap : {std::size_t{20000}, std::size_t{50}}) {
        SCOPED_TRACE(::testing::Message() << name << ", " << n << " qubits, cap " << cap);
        EXPECT_EQ(noise_aware_layout(qc, device, cap), reference(qc, device, cap));
      }
    }
  }
}

TEST(Routing, InsertsSwapsOnlyWhenNeeded) {
  const auto coupling = noise::CouplingMap::line(5);
  QuantumCircuit qc(3);
  qc.cx(0, 1).cx(1, 2);
  const RoutingResult near = route(qc, coupling, {0, 1, 2});
  EXPECT_EQ(near.added_swaps, 0u);

  QuantumCircuit far(2);
  far.cx(0, 1);
  const RoutingResult routed = route(far, coupling, {0, 4});
  EXPECT_GT(routed.added_swaps, 0u);
  for (const auto& g : routed.circuit.gates()) {
    if (g.qubits.size() == 2) {
      EXPECT_TRUE(coupling.are_coupled(g.qubits[0], g.qubits[1]));
    }
  }
}

TEST(Routing, RoutedCircuitActsIdentically) {
  // Compare output distributions: routed circuit + unpermutation == original.
  const auto coupling = noise::CouplingMap::ourense_t();
  common::Rng rng(6);
  QuantumCircuit qc(3);
  qc.h(0).cx(0, 2).u3(0.4, 0.1, -0.3, 1).cx(2, 1).cx(0, 1);
  const QuantumCircuit basis = decompose_to_cx_u3(qc);
  const RoutingResult routed = route(basis, coupling, {0, 2, 4});

  const auto expect = sim::ideal_probabilities(basis);
  const auto got =
      unpermute_distribution(sim::ideal_probabilities(routed.circuit), routed.final_layout);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_NEAR(got[i], expect[i], 1e-9);
}

TEST(Routing, UnpermuteIdentity) {
  const std::vector<double> p = {0.1, 0.2, 0.3, 0.4};
  EXPECT_EQ(unpermute_distribution(p, {0, 1}), p);
  // Swap wires: wire index 1 (virtual 0 set) maps to virtual index 2, and
  // vice versa.
  const auto swapped = unpermute_distribution(p, {1, 0});
  EXPECT_EQ(swapped[2], 0.2);  // wire pattern 01 -> virtual pattern 10
  EXPECT_EQ(swapped[1], 0.3);
}

TEST(Pipeline, AllToAllLevels) {
  QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  for (int level = 0; level <= 3; ++level) {
    const QuantumCircuit out = transpile_all_to_all(qc, level);
    EXPECT_TRUE(out.in_cx_u3_basis());
    EXPECT_LT(metrics::hs_distance(qc.to_unitary(), out.to_unitary()), 1e-7);
  }
}

TEST(Pipeline, EndToEndPreservesSemantics) {
  const auto device = noise::device_by_name("ourense");
  QuantumCircuit qc(3);
  qc.h(0).cx(0, 2).rzz(0.7, 1, 2).cx(2, 0);
  for (int level : {1, 2, 3}) {
    TranspileOptions opts;
    opts.optimization_level = level;
    const TranspileResult tr = transpile(qc, device, opts);
    EXPECT_TRUE(tr.circuit.in_cx_u3_basis());

    const auto expect = sim::ideal_probabilities(decompose_to_cx_u3(qc));
    const auto got =
        unpermute_distribution(sim::ideal_probabilities(tr.circuit), tr.wire_of_virtual);
    for (std::size_t i = 0; i < expect.size(); ++i)
      ASSERT_NEAR(got[i], expect[i], 1e-8) << "level " << level;
  }
}

TEST(Pipeline, PinnedLayoutIsRespected) {
  const auto device = noise::device_by_name("toronto");
  QuantumCircuit qc(2);
  qc.cx(0, 1);
  TranspileOptions opts;
  opts.optimization_level = 1;
  opts.initial_layout = Layout{12, 13};
  const TranspileResult tr = transpile(qc, device, opts);
  EXPECT_EQ(tr.initial_layout, (Layout{12, 13}));
  EXPECT_EQ(tr.active_physical, (std::vector<int>{12, 13}));
}

TEST(Pipeline, RestrictedDeviceInheritsCalibration) {
  const auto device = noise::device_by_name("toronto");
  const auto sub = restrict_device(device, {12, 13, 14});
  EXPECT_EQ(sub.num_qubits(), 3);
  EXPECT_TRUE(sub.coupling.are_coupled(0, 1));   // 12-13
  EXPECT_TRUE(sub.coupling.are_coupled(1, 2));   // 13-14
  EXPECT_EQ(sub.cx_error_for(0, 1), device.cx_error_for(12, 13));
  EXPECT_EQ(sub.readout[2].average(), device.readout[14].average());
}

TEST(Pipeline, Level3MapsAwayFromBadQubits) {
  // Force one edge to be terrible; level-3 layout should avoid it.
  auto device = noise::device_by_name("santiago");
  device.cx_error[device.coupling.edge_index(0, 1)] = 0.4;
  QuantumCircuit qc(2);
  for (int i = 0; i < 5; ++i) qc.cx(0, 1);
  TranspileOptions opts;
  opts.optimization_level = 3;
  const TranspileResult tr = transpile(qc, device, opts);
  const bool uses_bad_edge = tr.active_physical == std::vector<int>{0, 1};
  EXPECT_FALSE(uses_bad_edge);
}

}  // namespace
}  // namespace qc::transpile

namespace qc::transpile {
namespace {

TEST(SabreRouting, ProducesCoupledGatesAndSameSemantics) {
  const auto coupling = noise::CouplingMap::line(5);
  common::Rng rng(71);
  QuantumCircuit qc(4);
  qc.h(0).cx(0, 3).u3(0.4, 0.1, -0.3, 1).cx(3, 1).cx(0, 2).cx(2, 3);
  const QuantumCircuit basis = decompose_to_cx_u3(qc);
  const RoutingResult routed = route_sabre(basis, coupling, {0, 1, 2, 3});
  for (const auto& g : routed.circuit.gates()) {
    if (g.qubits.size() == 2) {
      ASSERT_TRUE(coupling.are_coupled(g.qubits[0], g.qubits[1]));
    }
  }

  const auto expect = sim::ideal_probabilities(basis);
  const auto got =
      unpermute_distribution(sim::ideal_probabilities(routed.circuit), routed.final_layout);
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_NEAR(got[i], expect[i], 1e-9);
}

TEST(SabreRouting, NoSwapsWhenAlreadyAdjacent) {
  const auto coupling = noise::CouplingMap::line(3);
  QuantumCircuit qc(3);
  qc.cx(0, 1).cx(1, 2);
  const RoutingResult routed = route_sabre(qc, coupling, {0, 1, 2});
  EXPECT_EQ(routed.added_swaps, 0u);
}

TEST(SabreRouting, NeverWorseThanGreedyOnCongestedLines) {
  // All-pairs interactions on a line: the classic case where lookahead wins.
  const auto coupling = noise::CouplingMap::line(6);
  QuantumCircuit qc(6);
  for (int a = 0; a < 6; ++a)
    for (int b = a + 1; b < 6; ++b) qc.cx(a, b);
  const Layout trivial = {0, 1, 2, 3, 4, 5};
  const auto greedy = route(qc, coupling, trivial);
  const auto sabre = route_sabre(qc, coupling, trivial);
  EXPECT_LE(sabre.added_swaps, greedy.added_swaps);
  EXPECT_GT(sabre.added_swaps, 0u);
}

TEST(SabreRouting, PipelineIntegration) {
  const auto device = noise::device_by_name("toronto");
  QuantumCircuit qc(4);
  qc.h(0).cx(0, 2).cx(1, 3).cx(0, 3);
  TranspileOptions opts;
  opts.router = TranspileOptions::Router::Sabre;
  opts.optimization_level = 1;
  const auto tr = transpile(qc, device, opts);
  const auto got =
      unpermute_distribution(sim::ideal_probabilities(tr.circuit), tr.wire_of_virtual);
  const auto expect = sim::ideal_probabilities(decompose_to_cx_u3(qc));
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_NEAR(got[i], expect[i], 1e-8);
}

}  // namespace
}  // namespace qc::transpile
