// Tests for the roadmap extensions: QFactor sweeping optimizer, partitioned
// resynthesis, quantum volume, readout mitigation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algos/qv.hpp"
#include "algos/tfim.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/factories.hpp"
#include "metrics/distribution.hpp"
#include "metrics/process.hpp"
#include "noise/catalog.hpp"
#include "noise/mitigation.hpp"
#include "sim/compiled.hpp"
#include "synth/partition.hpp"
#include "synth/qfactor.hpp"
#include "transpile/decompose.hpp"
#include "transpile/twirling.hpp"

namespace qc {
namespace {

using ir::GateKind;
using ir::QuantumCircuit;
using linalg::Matrix;

// ---- QFactor ---------------------------------------------------------------

TEST(QFactor, EnvironmentUpdateIsOptimal) {
  common::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix k(2, 2);
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < 2; ++c) k(r, c) = {rng.normal(), rng.normal()};
    const Matrix u = synth::best_unitary_for_environment(k);
    ASSERT_TRUE(u.is_unitary(1e-8));
    const double best = std::abs((u * k).trace());
    // No sampled unitary may do better.
    for (int probe = 0; probe < 30; ++probe) {
      const Matrix v = linalg::random_unitary(2, rng);
      ASSERT_LE(std::abs((v * k).trace()), best + 1e-8);
    }
  }
}

TEST(QFactor, RecoversScrambledAngles) {
  // Build a circuit, scramble its U3 angles, and let QFactor pull them back.
  common::Rng rng(2);
  QuantumCircuit original(3);
  original.u3(0.3, 0.1, -0.4, 0).u3(1.1, 0.0, 0.2, 1).cx(0, 1).u3(0.8, -0.5, 0.6, 1)
      .cx(1, 2).u3(0.2, 0.9, 0.1, 2).cx(0, 1).u3(0.5, 0.5, 0.5, 0);
  const Matrix target = original.to_unitary();

  QuantumCircuit scrambled(3);
  for (const auto& g : original.gates()) {
    if (g.kind == GateKind::U3) {
      scrambled.u3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
                   g.qubits[0]);
    } else {
      scrambled.append(g);
    }
  }
  EXPECT_GT(metrics::hs_distance(target, scrambled.to_unitary()), 0.1);

  const synth::QFactorResult result = synth::qfactor_optimize(scrambled, target);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.hs_distance, 1e-5);
  // Structure is preserved: same CX count.
  EXPECT_EQ(result.circuit.count(GateKind::CX), original.count(GateKind::CX));
}

TEST(QFactor, MonotoneCostAcrossSweeps) {
  common::Rng rng(3);
  const Matrix target = linalg::random_unitary(8, rng);
  QuantumCircuit structure(3);
  structure.u3(0, 0, 0, 0).u3(0, 0, 0, 1).u3(0, 0, 0, 2);
  for (int b = 0; b < 4; ++b) {
    structure.cx(b % 2, (b % 2) + 1);
    structure.u3(0, 0, 0, b % 2).u3(0, 0, 0, (b % 2) + 1);
  }
  synth::QFactorOptions one_sweep;
  one_sweep.max_sweeps = 1;
  synth::QFactorOptions many;
  many.max_sweeps = 30;
  const double after_one =
      synth::qfactor_optimize(structure, target, one_sweep).hs_distance;
  const double after_many =
      synth::qfactor_optimize(structure, target, many).hs_distance;
  EXPECT_LE(after_many, after_one + 1e-9);
  EXPECT_LT(after_many, 0.9);  // made real progress on a random target
}

TEST(QFactor, PolishesQSearchOutput) {
  algos::TfimModel model;
  const Matrix target = model.trotter_unitary_up_to(4);
  synth::QSearchOptions opts;
  opts.max_nodes = 8;
  opts.max_cnots = 4;
  opts.optimizer.max_iterations = 25;  // deliberately under-optimized
  const synth::QSearchResult rough = synth::qsearch_synthesize(target, 3, opts);
  const synth::QFactorResult polished =
      synth::qfactor_optimize(rough.best.circuit, target);
  EXPECT_LE(polished.hs_distance, rough.best.hs_distance + 1e-9);
}

TEST(QFactor, WidthMismatchThrows) {
  QuantumCircuit qc(2);
  qc.cx(0, 1);
  EXPECT_THROW(synth::qfactor_optimize(qc, Matrix::identity(8)), common::Error);
}

// ---- Partitioning ----------------------------------------------------------

TEST(Partition, BlocksRespectWidthAndCoverAllGates) {
  algos::TfimModel model;
  model.num_qubits = 4;
  const QuantumCircuit circuit =
      transpile::decompose_to_cx_u3(model.circuit_up_to(4));
  const auto parts = synth::partition_circuit_dag(circuit, 2);
  std::size_t total_gates = 0;
  for (const auto& p : parts) {
    EXPECT_LE(p.qubits.size(), 2u);
    EXPECT_TRUE(std::is_sorted(p.qubits.begin(), p.qubits.end()));
    total_gates += p.sub_circuit.size();
  }
  EXPECT_EQ(total_gates, circuit.size());
}

TEST(Partition, ReassemblyIsExact) {
  algos::TfimModel model;
  const QuantumCircuit circuit =
      transpile::decompose_to_cx_u3(model.circuit_up_to(3));
  const auto parts = synth::partition_circuit_dag(circuit, 2);
  QuantumCircuit rebuilt(circuit.num_qubits());
  for (const auto& p : parts) rebuilt.append_mapped(p.sub_circuit, p.qubits);
  EXPECT_LT(metrics::hs_distance(circuit.to_unitary(), rebuilt.to_unitary()), 1e-7);
}

TEST(Partition, BarriersCutBlocks) {
  QuantumCircuit qc(2);
  qc.cx(0, 1).barrier().cx(0, 1);
  const auto parts = synth::partition_circuit_dag(qc, 2);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(Partition, RejectsOversizedGates) {
  QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  EXPECT_THROW(synth::partition_circuit_dag(qc, 2), common::Error);
}

TEST(Partition, ResynthesisShrinksRedundantCircuits) {
  // Each block is a tiny-angle ZZ rotation (2 CX exact, but within an HS
  // budget of 0.02 a 0-CX circuit suffices) — the approximate compression
  // partitioned synthesis exists for.
  QuantumCircuit qc(4);
  for (int r = 0; r < 4; ++r) {
    qc.cx(0, 1).rz(0.02, 1).cx(0, 1);
    qc.cx(2, 3).rz(0.015, 3).cx(2, 3);
  }
  synth::PartitionedSynthesisOptions opts;
  opts.block_qubits = 2;
  opts.block_hs_budget = 0.02;
  opts.qsearch.max_nodes = 8;
  opts.qsearch.max_cnots = 2;
  const auto result = synth::resynthesize_partitioned(qc, opts);
  EXPECT_LT(result.cnots_after, result.cnots_before);
  EXPECT_GT(result.blocks_resynthesized, 0u);
  // Whole-circuit drift stays near the accumulated per-block budget.
  const double drift = metrics::hs_distance(
      transpile::decompose_to_cx_u3(qc).to_unitary(), result.circuit.to_unitary());
  EXPECT_LT(drift, 4.0 * opts.block_hs_budget + 0.05);
}

TEST(Partition, NeverRegresses) {
  // A circuit synthesis cannot improve at the given budget passes through.
  QuantumCircuit qc(2);
  qc.cx(0, 1);
  synth::PartitionedSynthesisOptions opts;
  opts.qsearch.max_nodes = 3;
  const auto result = synth::resynthesize_partitioned(qc, opts);
  EXPECT_EQ(result.cnots_after, 1u);
  EXPECT_LT(metrics::hs_distance(qc.to_unitary(), result.circuit.to_unitary()), 1e-7);
}

// ---- Quantum Volume --------------------------------------------------------

TEST(QuantumVolume, ModelCircuitShape) {
  common::Rng rng(7);
  const QuantumCircuit model = algos::qv_model_circuit(4, rng);
  EXPECT_EQ(model.num_qubits(), 4);
  // 4 layers x 2 pairs x 3 CX.
  EXPECT_EQ(model.count(GateKind::CX), 24u);
  EXPECT_TRUE(model.in_cx_u3_basis());
}

TEST(QuantumVolume, HeavySetIsHalfTheOutcomes) {
  common::Rng rng(8);
  const QuantumCircuit model = algos::qv_model_circuit(3, rng);
  const auto ideal = sim::ideal_probabilities(model);
  const auto heavy = algos::qv_heavy_set(ideal);
  // With continuous probabilities the heavy set has exactly half the
  // outcomes (no ties at the median).
  EXPECT_EQ(heavy.size(), ideal.size() / 2);
}

TEST(QuantumVolume, IdealHopNearTheoreticalValue) {
  // For Haar-like scrambling, ideal heavy-output probability ~ (1+ln2)/2 ~ .85.
  common::Rng rng(9);
  double hop = 0.0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const QuantumCircuit model = algos::qv_model_circuit(3, rng);
    const auto ideal = sim::ideal_probabilities(model);
    hop += algos::heavy_output_probability(ideal, ideal);
  }
  EXPECT_NEAR(hop / trials, 0.846, 0.06);
}

TEST(QuantumVolume, FullyMixedFailsAndIdealPasses) {
  common::Rng rng(10);
  const QuantumCircuit model = algos::qv_model_circuit(3, rng);
  const auto ideal = sim::ideal_probabilities(model);
  EXPECT_GT(algos::heavy_output_probability(ideal, ideal), 2.0 / 3.0);
  const auto mixed = metrics::uniform_distribution(ideal.size());
  EXPECT_NEAR(algos::heavy_output_probability(ideal, mixed), 0.5, 1e-9);
}

TEST(QuantumVolume, CleanDeviceBeatsNoisyDevice) {
  algos::QvOptions opts;
  opts.num_circuits = 4;  // test budget
  opts.max_width = 3;
  const auto ourense =
      algos::measure_quantum_volume(noise::device_by_name("ourense"), opts);
  const auto rome = algos::measure_quantum_volume(noise::device_by_name("rome"), opts);
  ASSERT_EQ(ourense.widths.size(), 2u);
  // Ourense (0.77% CX err) keeps more heavy-output mass than Rome (2.97%).
  EXPECT_GT(ourense.widths[1].mean_heavy_probability,
            rome.widths[1].mean_heavy_probability);
}

// ---- Readout mitigation ------------------------------------------------------

TEST(Mitigation, ExactlyInvertsConfusion) {
  const std::vector<noise::ReadoutError> errs = {{0.03, 0.08}, {0.05, 0.02}};
  std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  const auto corrupted = noise::apply_readout_error(truth, errs);
  const noise::ReadoutMitigator mitigator(errs);
  const auto recovered = mitigator.apply(corrupted);
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(recovered[i], truth[i], 1e-10);
}

TEST(Mitigation, ClipsQuasiProbabilities) {
  // A distribution that could not have come from the confusion model
  // produces negative quasi-probabilities; apply() must still return a
  // valid distribution.
  const std::vector<noise::ReadoutError> errs = {{0.2, 0.2}};
  const noise::ReadoutMitigator mitigator(errs);
  const auto out = mitigator.apply({1.0, 0.0});
  EXPECT_TRUE(metrics::is_distribution(out, 1e-9));
}

TEST(Mitigation, SingularConfusionThrows) {
  EXPECT_THROW(noise::ReadoutMitigator({{0.5, 0.5}}), common::Error);
}

TEST(Mitigation, ImprovesNoisyBackendOutput) {
  const auto device = noise::device_by_name("ourense");
  ir::QuantumCircuit bell(2);
  bell.h(0).cx(0, 1);
  const auto ideal = sim::ideal_probabilities(bell);

  const auto model = noise::simulator_noise_model(device);
  const auto noisy =
      sim::density_matrix_probabilities(sim::compile_noisy_circuit(bell, model));

  const std::vector<noise::ReadoutError> errs(model.readout_errors().begin(),
                                              model.readout_errors().begin() + 2);
  const noise::ReadoutMitigator mitigator(errs);
  const auto mitigated = mitigator.apply(noisy);
  EXPECT_LT(metrics::total_variation(ideal, mitigated),
            metrics::total_variation(ideal, noisy));
}

}  // namespace
}  // namespace qc

namespace qc {
namespace {

TEST(Twirling, InstancePreservesUnitary) {
  common::Rng rng(21);
  ir::QuantumCircuit qc(3);
  qc.u3(0.4, 0.2, -0.1, 0).cx(0, 1).u3(1.2, 0.0, 0.3, 1).cx(1, 2).cx(0, 1);
  const Matrix reference = qc.to_unitary();
  for (int i = 0; i < 10; ++i) {
    const ir::QuantumCircuit twirled = transpile::pauli_twirl(qc, rng);
    ASSERT_LT(metrics::hs_distance(reference, twirled.to_unitary()), 1e-7) << i;
    EXPECT_EQ(twirled.count(ir::GateKind::CX), qc.count(ir::GateKind::CX));
  }
}

TEST(Twirling, FramesActuallyVary) {
  common::Rng rng(22);
  ir::QuantumCircuit qc(2);
  qc.cx(0, 1);
  std::set<std::size_t> sizes;
  for (int i = 0; i < 20; ++i)
    sizes.insert(transpile::pauli_twirl(qc, rng).size());
  EXPECT_GT(sizes.size(), 1u);  // identity frame vs non-trivial frames
}

TEST(Twirling, AverageConvergesUnderCoherentNoise) {
  // Coherent-only noise: twirled averaging must reproduce the same ideal
  // map on average while each instance stays unitarily equivalent.
  common::Rng rng(23);
  ir::QuantumCircuit qc(2);
  qc.u3(0.7, 0.1, 0.0, 0).cx(0, 1).u3(0.3, -0.4, 0.2, 1).cx(0, 1);

  auto device = noise::device_by_name("ourense");
  noise::NoiseModelOptions opts;
  opts.depolarizing = false;
  opts.thermal_relaxation = false;
  opts.readout = false;
  opts.coherent_cx_overrotation = true;
  const auto model = noise::NoiseModel::from_device(device, opts);

  auto run = [&](const ir::QuantumCircuit& c) {
    return sim::density_matrix_probabilities(sim::compile_noisy_circuit(c, model));
  };
  const auto averaged = transpile::twirled_average(qc, 16, rng, run);
  EXPECT_TRUE(metrics::is_distribution(averaged, 1e-9));
  // Averaging cannot be *worse* than the raw coherent run by much; typically
  // it is closer to ideal (coherent -> stochastic conversion).
  const auto reference = sim::ideal_probabilities(qc);
  const double raw = metrics::total_variation(reference, run(qc));
  const double twirled = metrics::total_variation(reference, averaged);
  EXPECT_LT(twirled, raw + 0.02);
}

TEST(Twirling, RejectsUnloweredCircuits) {
  common::Rng rng(24);
  ir::QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  EXPECT_THROW(transpile::pauli_twirl(qc, rng), common::Error);
}

}  // namespace
}  // namespace qc
