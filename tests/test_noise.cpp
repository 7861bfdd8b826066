// Unit + property tests for qc::noise — channels, readout, topology,
// device catalog, noise models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "linalg/factories.hpp"
#include "noise/catalog.hpp"
#include "noise/channel.hpp"
#include "noise/noise_model.hpp"
#include "noise/readout.hpp"
#include "noise/topology.hpp"

namespace qc::noise {
namespace {

using linalg::cplx;
using linalg::Matrix;

Matrix plus_state_rho() {
  // |+><+|
  Matrix rho(2, 2);
  rho(0, 0) = rho(0, 1) = rho(1, 0) = rho(1, 1) = cplx{0.5, 0.0};
  return rho;
}

class ChannelTraceTest : public ::testing::TestWithParam<double> {};

TEST_P(ChannelTraceTest, StandardChannelsAreTracePreserving) {
  const double p = GetParam();
  EXPECT_TRUE(depolarizing(p, 1).is_trace_preserving());
  EXPECT_TRUE(depolarizing(p, 2).is_trace_preserving());
  EXPECT_TRUE(amplitude_damping(p).is_trace_preserving());
  EXPECT_TRUE(phase_damping(p).is_trace_preserving());
  EXPECT_TRUE(bit_flip(p).is_trace_preserving());
  EXPECT_TRUE(phase_flip(p).is_trace_preserving());
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ChannelTraceTest,
                         ::testing::Values(0.0, 0.01, 0.12, 0.24, 0.5, 1.0));

TEST(Channel, RejectsNonTracePreserving) {
  // A single non-unitary Kraus operator alone is not a channel.
  Matrix k(2, 2, {{0.5, 0}, {0, 0}, {0, 0}, {0.5, 0}});
  EXPECT_THROW(Channel({k}), common::Error);
}

TEST(Channel, DepolarizingContractsTowardMixed) {
  const Channel ch = depolarizing(0.4, 1);
  const Matrix rho = ch.apply(plus_state_rho());
  // Off-diagonals shrink by exactly (1 - p).
  EXPECT_NEAR(rho(0, 1).real(), 0.5 * 0.6, 1e-12);
  EXPECT_NEAR(rho(0, 0).real(), 0.5, 1e-12);
  // Full depolarizing gives the maximally mixed state.
  const Matrix mixed = depolarizing(1.0, 1).apply(plus_state_rho());
  EXPECT_NEAR(mixed(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(mixed(0, 1)), 0.0, 1e-12);
}

TEST(Channel, AmplitudeDampingDecaysExcitedState) {
  Matrix excited(2, 2);
  excited(1, 1) = cplx{1.0, 0.0};
  const Matrix rho = amplitude_damping(0.3).apply(excited);
  EXPECT_NEAR(rho(1, 1).real(), 0.7, 1e-12);
  EXPECT_NEAR(rho(0, 0).real(), 0.3, 1e-12);
}

TEST(Channel, PhaseDampingKillsCoherenceOnly) {
  const Matrix rho = phase_damping(0.75).apply(plus_state_rho());
  EXPECT_NEAR(rho(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(rho(0, 1)), 0.5 * std::sqrt(0.25), 1e-12);
}

TEST(Channel, ThermalRelaxationMatchesT1T2Decay) {
  const double t1 = 100.0, t2 = 80.0, dur = 25.0;
  const Channel ch = thermal_relaxation(t1, t2, dur);
  Matrix excited(2, 2);
  excited(1, 1) = cplx{1.0, 0.0};
  const Matrix after_t1 = ch.apply(excited);
  EXPECT_NEAR(after_t1(1, 1).real(), std::exp(-dur / t1), 1e-10);
  const Matrix after_t2 = ch.apply(plus_state_rho());
  EXPECT_NEAR(std::abs(after_t2(0, 1)), 0.5 * std::exp(-dur / t2), 1e-10);
}

TEST(Channel, ThermalRelaxationRejectsInvalidT2) {
  EXPECT_THROW(thermal_relaxation(10.0, 25.0, 1.0), common::Error);
}

TEST(Channel, ZzOverrotationIsUnitary) {
  const Channel ch = zz_overrotation(0.17);
  EXPECT_EQ(ch.kraus().size(), 1u);
  EXPECT_TRUE(ch.kraus()[0].is_unitary(1e-10));
  // Zero angle = identity.
  EXPECT_NEAR(zz_overrotation(0.0).kraus()[0].max_abs_diff(Matrix::identity(4)), 0.0,
              1e-12);
}

TEST(Channel, MixedUnitaryFormDetectsPauliChannels) {
  std::vector<double> probs;
  std::vector<Matrix> us;
  EXPECT_TRUE(depolarizing(0.1, 1).mixed_unitary_form(probs, us));
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_FALSE(amplitude_damping(0.3).mixed_unitary_form(probs, us));
}

TEST(Channel, ComposeMatchesSequentialApplication) {
  const Channel a = bit_flip(0.2);
  const Channel b = phase_flip(0.3);
  const Matrix rho = plus_state_rho();
  const Matrix direct = b.apply(a.apply(rho));
  const Matrix composed = a.compose(b).apply(rho);
  EXPECT_NEAR(direct.max_abs_diff(composed), 0.0, 1e-10);
}

TEST(Readout, ExactConfusionApplication) {
  // One qubit: p(1|0)=0.1, p(0|1)=0.2 applied to a pure |1>.
  std::vector<double> probs = {0.0, 1.0};
  const auto noisy = apply_readout_error(probs, {ReadoutError{0.1, 0.2}});
  EXPECT_NEAR(noisy[0], 0.2, 1e-12);
  EXPECT_NEAR(noisy[1], 0.8, 1e-12);
}

TEST(Readout, TwoQubitIndependence) {
  std::vector<double> probs = {1.0, 0.0, 0.0, 0.0};  // |00>
  const auto noisy = apply_readout_error(
      probs, {ReadoutError{0.1, 0.0}, ReadoutError{0.2, 0.0}});
  EXPECT_NEAR(noisy[0], 0.9 * 0.8, 1e-12);
  EXPECT_NEAR(noisy[1], 0.1 * 0.8, 1e-12);
  EXPECT_NEAR(noisy[2], 0.9 * 0.2, 1e-12);
  EXPECT_NEAR(noisy[3], 0.1 * 0.2, 1e-12);
}

TEST(Readout, SampledFlipsMatchRates) {
  common::Rng rng(9);
  const std::vector<ReadoutError> errs = {ReadoutError{0.25, 0.0}};
  int flips = 0;
  for (int i = 0; i < 20000; ++i)
    flips += sample_readout_flip(0, errs, rng) == 1 ? 1 : 0;
  EXPECT_NEAR(flips / 20000.0, 0.25, 0.02);
}

TEST(Topology, LineProperties) {
  const CouplingMap line = CouplingMap::line(5);
  EXPECT_EQ(line.num_edges(), 4u);
  EXPECT_TRUE(line.are_coupled(2, 3));
  EXPECT_FALSE(line.are_coupled(0, 2));
  EXPECT_EQ(line.distance(0, 4), 4);
  EXPECT_TRUE(line.is_connected());
}

TEST(Topology, OurenseT) {
  const CouplingMap t = CouplingMap::ourense_t();
  EXPECT_EQ(t.num_qubits(), 5);
  EXPECT_EQ(t.num_edges(), 4u);
  EXPECT_TRUE(t.are_coupled(1, 3));
  EXPECT_EQ(t.distance(0, 4), 3);  // 0-1-3-4
}

TEST(Topology, HeavyHexLayouts) {
  const CouplingMap toronto = CouplingMap::falcon_27();
  EXPECT_EQ(toronto.num_qubits(), 27);
  EXPECT_TRUE(toronto.is_connected());
  const CouplingMap manhattan = CouplingMap::hummingbird_65();
  EXPECT_EQ(manhattan.num_qubits(), 65);
  EXPECT_TRUE(manhattan.is_connected());
  // Heavy-hex lattices are sparse: max degree 3.
  for (int q = 0; q < 65; ++q) EXPECT_LE(manhattan.neighbors(q).size(), 3u);
}

TEST(Topology, EdgeIndexRoundTrip) {
  const CouplingMap line = CouplingMap::line(4);
  for (std::size_t e = 0; e < line.num_edges(); ++e) {
    const auto [a, b] = line.edges()[e];
    EXPECT_EQ(line.edge_index(a, b), e);
    EXPECT_EQ(line.edge_index(b, a), e);
  }
  EXPECT_THROW(line.edge_index(0, 2), common::Error);
}

TEST(Topology, ConnectedSubsets) {
  const CouplingMap line = CouplingMap::line(5);
  const auto pairs = line.connected_subsets(2);
  EXPECT_EQ(pairs.size(), 4u);  // exactly the edges
  const auto triples = line.connected_subsets(3);
  EXPECT_EQ(triples.size(), 3u);  // {0,1,2},{1,2,3},{2,3,4}
  // On the T layout, {0,1,3} is connected through qubit 1.
  const auto t_triples = CouplingMap::ourense_t().connected_subsets(3);
  EXPECT_NE(std::find(t_triples.begin(), t_triples.end(), std::vector<int>{0, 1, 3}),
            t_triples.end());
}

/// connected_subsets as it was written with std::set: every level collected
/// in a set of sorted vectors. The oracle for the sort + unique version.
std::vector<std::vector<int>> set_connected_subsets(const CouplingMap& map, int k) {
  std::vector<std::vector<int>> frontier;
  for (int q = 0; q < map.num_qubits(); ++q) frontier.push_back({q});
  for (int size = 1; size < k; ++size) {
    std::set<std::vector<int>> next;
    for (const auto& s : frontier) {
      for (int q : s) {
        for (int nb : map.neighbors(q)) {
          if (std::find(s.begin(), s.end(), nb) != s.end()) continue;
          std::vector<int> grown = s;
          grown.push_back(nb);
          std::sort(grown.begin(), grown.end());
          next.insert(std::move(grown));
        }
      }
    }
    frontier.assign(next.begin(), next.end());
  }
  return frontier;
}

TEST(Topology, ConnectedSubsetsMatchSetBasedReference) {
  for (const CouplingMap& map : {CouplingMap::falcon_27(), CouplingMap::hummingbird_65()}) {
    for (int k = 1; k <= 5; ++k) {
      const auto got = map.connected_subsets(k);
      EXPECT_EQ(got, set_connected_subsets(map, k))
          << map.num_qubits() << " qubits, k=" << k;
      EXPECT_FALSE(got.empty());
    }
  }
}

/// Hop distances by a BFS per pair of qubits, straight from neighbors():
/// the oracle for the table the constructor builds.
int bfs_distance(const CouplingMap& map, int a, int b) {
  std::vector<int> dist(static_cast<std::size_t>(map.num_qubits()), -1);
  std::deque<int> queue{a};
  dist[a] = 0;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v : map.neighbors(u)) {
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist[b];
}

TEST(Topology, DistanceTableMatchesBfsReferenceAndCopiesShareIt) {
  const CouplingMap split(4, {{0, 1}, {2, 3}});  // two components
  EXPECT_FALSE(split.is_connected());
  EXPECT_EQ(split.distance(0, 3), -1);
  for (const CouplingMap& map :
       {CouplingMap::line(6), CouplingMap::ring(7), CouplingMap::ourense_t(),
        CouplingMap::falcon_27(), CouplingMap::hummingbird_65(), split}) {
    const int n = map.num_qubits();
    ASSERT_EQ(map.distance_table().size(), static_cast<std::size_t>(n * n));
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b)
        ASSERT_EQ(map.distance(a, b), bfs_distance(map, a, b))
            << n << " qubits, " << a << "-" << b;
    const CouplingMap copy = map;
    EXPECT_EQ(&copy.distance_table(), &map.distance_table());
  }

  // Concurrent readers of one freshly built map: the table is complete before
  // the constructor returns, so there is nothing to race on.
  const CouplingMap fresh = CouplingMap::hummingbird_65();
  std::vector<long> sums(8, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < sums.size(); ++t) {
    readers.emplace_back([&fresh, &sums, t] {
      for (int a = 0; a < 65; ++a)
        for (int b = 0; b < 65; ++b) sums[t] += fresh.distance(a, b);
    });
  }
  for (std::thread& r : readers) r.join();
  long expect = 0;
  for (int d : fresh.distance_table()) expect += d;
  for (long s : sums) EXPECT_EQ(s, expect);
}

TEST(Catalog, Table1AveragesMatchExactly) {
  const struct {
    const char* name;
    int qubits;
    double avg;
  } expected[] = {{"manhattan", 65, 0.01578},
                  {"toronto", 27, 0.01377},
                  {"santiago", 5, 0.01131},
                  {"rome", 5, 0.02965},
                  {"ourense", 5, 0.00767}};
  for (const auto& e : expected) {
    const DeviceProperties d = device_by_name(e.name);
    EXPECT_EQ(d.num_qubits(), e.qubits) << e.name;
    EXPECT_NEAR(d.average_cx_error(), e.avg, 1e-9) << e.name;
  }
}

TEST(Catalog, SnapshotsAreDeterministic) {
  const DeviceProperties a = device_by_name("toronto");
  const DeviceProperties b = device_by_name("ibmq_toronto");
  ASSERT_EQ(a.cx_error.size(), b.cx_error.size());
  for (std::size_t i = 0; i < a.cx_error.size(); ++i)
    EXPECT_EQ(a.cx_error[i], b.cx_error[i]);
}

TEST(Catalog, EdgesVaryRealistically) {
  const DeviceProperties d = device_by_name("toronto");
  double lo = 1.0, hi = 0.0;
  for (double e : d.cx_error) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  EXPECT_GT(hi / lo, 1.5);  // calibration spread exists
  EXPECT_LT(hi, 0.15);      // but stays physical
}

TEST(Catalog, UnknownDeviceThrows) {
  EXPECT_THROW(device_by_name("kolkata"), common::Error);
}

// The engine caches one noise model per (device, options fingerprint), so an
// option the fingerprint skips would hand two option sets the same model.
TEST(NoiseModelOptions, EveryFieldChangesTheFingerprint) {
  // Adding a field changes the size: list the field below and in fingerprint().
  static_assert(sizeof(NoiseModelOptions) == 48,
                "NoiseModelOptions changed: cover the new field here and in fingerprint()");
  using Flip = void (*)(NoiseModelOptions&);
  const std::vector<std::pair<const char*, Flip>> flips = {
      {"thermal_relaxation",
       [](NoiseModelOptions& o) { o.thermal_relaxation = !o.thermal_relaxation; }},
      {"readout", [](NoiseModelOptions& o) { o.readout = !o.readout; }},
      {"depolarizing", [](NoiseModelOptions& o) { o.depolarizing = !o.depolarizing; }},
      {"coherent_cx_overrotation",
       [](NoiseModelOptions& o) { o.coherent_cx_overrotation = !o.coherent_cx_overrotation; }},
      {"zz_crosstalk", [](NoiseModelOptions& o) { o.zz_crosstalk = !o.zz_crosstalk; }},
      {"hardware_drift_scale", [](NoiseModelOptions& o) { o.hardware_drift_scale += 0.5; }},
      {"hardware_readout_scale", [](NoiseModelOptions& o) { o.hardware_readout_scale += 0.5; }},
      {"idle_relaxation", [](NoiseModelOptions& o) { o.idle_relaxation = !o.idle_relaxation; }},
      {"uniform_cx_error set", [](NoiseModelOptions& o) { o.uniform_cx_error = 0.0; }},
  };
  for (const NoiseModelOptions& base : {NoiseModelOptions{}, NoiseModelOptions::hardware()}) {
    for (const auto& [name, flip] : flips) {
      NoiseModelOptions changed = base;
      flip(changed);
      EXPECT_NE(changed.fingerprint(), base.fingerprint()) << name;
    }
  }
  NoiseModelOptions low;
  low.uniform_cx_error = 0.01;
  NoiseModelOptions high = low;
  high.uniform_cx_error = 0.02;
  EXPECT_NE(low.fingerprint(), high.fingerprint()) << "uniform_cx_error value";
}

TEST(NoiseModel, IdealModelProducesNoOps) {
  const NoiseModel m = NoiseModel::ideal(3);
  EXPECT_TRUE(m.is_ideal());
  EXPECT_TRUE(m.ops_for_gate(ir::Gate(ir::GateKind::CX, {0, 1})).empty());
  EXPECT_TRUE(m.ops_for_gate(ir::Gate(ir::GateKind::U3, {0}, {1, 2, 3})).empty());
  // Wide gates too: ideal references compile untranspiled circuits.
  EXPECT_TRUE(m.ops_for_gate(ir::Gate(ir::GateKind::CCX, {0, 1, 2})).empty());
}

TEST(NoiseModel, DeviceModelAttachesExpectedChannels) {
  const DeviceProperties d = device_by_name("ourense");
  const NoiseModel m = simulator_noise_model(d);
  EXPECT_FALSE(m.is_ideal());
  // CX on a coupled edge: 2q depolarizing + 2 thermal relaxations.
  const auto ops = m.ops_for_gate(ir::Gate(ir::GateKind::CX, {0, 1}));
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(ops[0].channel.num_qubits(), 2);
  EXPECT_EQ(ops[1].qubits, (std::vector<int>{0}));
  EXPECT_EQ(ops[2].qubits, (std::vector<int>{1}));
}

TEST(NoiseModel, HardwareModeAddsCoherentAndCrosstalk) {
  const DeviceProperties d = device_by_name("ourense");
  const NoiseModel m = hardware_noise_model(d);
  // CX on edge (1,3): qubit 1 also neighbours 0 and 2 -> crosstalk ops.
  const auto ops = m.ops_for_gate(ir::Gate(ir::GateKind::CX, {1, 3}));
  EXPECT_GT(ops.size(), 3u);
  bool saw_2q_unitary = false;
  for (const auto& op : ops)
    if (op.channel.kraus().size() == 1 && op.channel.num_qubits() == 2)
      saw_2q_unitary = true;
  EXPECT_TRUE(saw_2q_unitary);  // the coherent over-rotation
}

TEST(NoiseModel, UniformCxErrorOverride) {
  const DeviceProperties d = device_by_name("ourense");
  NoiseModelOptions uniform;
  uniform.uniform_cx_error = 0.12;
  const NoiseModel m = NoiseModel::from_device(d, uniform);
  EXPECT_NEAR(m.cx_error(0, 1), 0.12, 1e-12);
  EXPECT_NEAR(m.cx_error(3, 4), 0.12, 1e-12);
  NoiseModelOptions drifted;
  drifted.hardware_drift_scale = 2.0;
  const NoiseModel scaled = NoiseModel::from_device(d, drifted);
  EXPECT_NEAR(scaled.cx_error(0, 1), 2.0 * d.cx_error_for(0, 1), 1e-12);
}

TEST(NoiseModel, OpsDependOnlyOnGateQubits) {
  // Compiled programs ask the model once per distinct qubit tuple and share
  // the answer across gates, so the ops may not depend on kind or params.
  const auto same_ops = [](const std::vector<NoiseOp>& a, const std::vector<NoiseOp>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].qubits != b[i].qubits) return false;
      const auto& ka = a[i].channel.kraus();
      const auto& kb = b[i].channel.kraus();
      if (ka.size() != kb.size()) return false;
      for (std::size_t k = 0; k < ka.size(); ++k)
        if (ka[k].rows() != kb[k].rows() ||
            std::memcmp(ka[k].data(), kb[k].data(),
                        ka[k].rows() * ka[k].cols() * sizeof(cplx)) != 0)
          return false;
    }
    return true;
  };
  using ir::Gate;
  using ir::GateKind;
  for (const char* name : {"ourense", "manhattan"}) {
    const DeviceProperties d = device_by_name(name);
    for (const NoiseModel& m : {simulator_noise_model(d), hardware_noise_model(d)}) {
      for (int q : {0, 1, 3}) {
        SCOPED_TRACE(::testing::Message() << name << " qubit " << q);
        const auto ref = m.ops_for_gate(Gate(GateKind::U3, {q}, {0.1, 0.2, 0.3}));
        EXPECT_FALSE(ref.empty());
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::U3, {q}, {2.0, -1.0, 0.5}))));
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::X, {q}))));
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::RZ, {q}, {0.7}))));
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::H, {q}))));
      }
      for (const auto& [a, b] : std::vector<std::pair<int, int>>{{0, 1}, {1, 0}, {1, 2}}) {
        SCOPED_TRACE(::testing::Message() << name << " pair " << a << "," << b);
        const auto ref = m.ops_for_gate(Gate(GateKind::CX, {a, b}));
        EXPECT_FALSE(ref.empty());
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::CZ, {a, b}))));
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::SWAP, {a, b}))));
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::RZZ, {a, b}, {0.4}))));
        EXPECT_TRUE(same_ops(ref, m.ops_for_gate(Gate(GateKind::CP, {a, b}, {1.3}))));
      }
    }
  }
}

TEST(NoiseModel, RejectsWideGates) {
  const NoiseModel m = simulator_noise_model(device_by_name("ourense"));
  EXPECT_THROW(m.ops_for_gate(ir::Gate(ir::GateKind::CCX, {0, 1, 2})), common::Error);
}

TEST(Device, ValidationCatchesInconsistency) {
  DeviceProperties d = device_by_name("santiago");
  d.t1.pop_back();
  EXPECT_THROW(d.validate(), common::Error);
}

}  // namespace
}  // namespace qc::noise
