// Unit + property tests for qc::sim — state vector, density matrix,
// trajectory sampling, compiled programs, observables.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "linalg/embed.hpp"
#include "linalg/factories.hpp"
#include "linalg/kernels.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"
#include "noise/channel.hpp"
#include "noise/readout.hpp"
#include "sim/compiled.hpp"
#include "sim/density_matrix.hpp"
#include "sim/observables.hpp"
#include "sim/statevector.hpp"

#include "simd_isas.hpp"

namespace qc::sim {
namespace {

using linalg::cplx;

ir::QuantumCircuit random_basis_circuit(int num_qubits, int num_gates,
                                        common::Rng& rng) {
  ir::QuantumCircuit qc(num_qubits);
  for (int i = 0; i < num_gates; ++i) {
    if (rng.bernoulli(0.5) && num_qubits >= 2) {
      int a = static_cast<int>(rng.uniform_int(num_qubits));
      int b = static_cast<int>(rng.uniform_int(num_qubits));
      while (b == a) b = static_cast<int>(rng.uniform_int(num_qubits));
      qc.cx(a, b);
    } else {
      qc.u3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3),
            static_cast<int>(rng.uniform_int(num_qubits)));
    }
  }
  return qc;
}

/// Random circuit on `num_qubits` that uses every unitary GateKind (each kind
/// whose arity fits, MCX on 2..min(n, 6) qubits, so wide registers reach the
/// k > 4 generic kernel), in a shuffled order, with Barrier and Measure gates
/// mixed in.
ir::QuantumCircuit random_every_kind_circuit(int num_qubits, common::Rng& rng) {
  ir::QuantumCircuit qc(num_qubits);
  const auto distinct_qubits = [&](int k) {
    std::vector<int> qubits(static_cast<std::size_t>(num_qubits));
    std::iota(qubits.begin(), qubits.end(), 0);
    for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i)  // partial Fisher-Yates
      std::swap(qubits[i], qubits[i + rng.uniform_int(qubits.size() - i)]);
    qubits.resize(static_cast<std::size_t>(k));
    return qubits;
  };
  std::vector<ir::Gate> gates;
  for (int kind = 0; kind <= static_cast<int>(ir::GateKind::Measure); ++kind) {
    const auto k = static_cast<ir::GateKind>(kind);
    if (k == ir::GateKind::Barrier || k == ir::GateKind::Measure) continue;
    const int arity = k == ir::GateKind::MCX
                          ? 2 + static_cast<int>(rng.uniform_int(
                                    std::max(1, std::min(num_qubits, 6) - 1)))
                          : ir::gate_num_qubits(k);
    if (arity > num_qubits) continue;
    std::vector<double> params;
    for (int i = 0; i < ir::gate_num_params(k); ++i) params.push_back(rng.uniform(-3, 3));
    for (int copy = 0; copy < 2; ++copy) gates.emplace_back(k, distinct_qubits(arity), params);
  }
  gates.emplace_back(ir::GateKind::Measure, distinct_qubits(1));
  for (std::size_t i = gates.size(); i > 1; --i)
    std::swap(gates[i - 1], gates[rng.uniform_int(i)]);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (i == gates.size() / 2) qc.barrier();
    qc.append(gates[i]);
  }
  return qc;
}

/// The hardware preset with every edge's CX error scaled by 4 on top of its
/// drift: 4 x 4.5 = 18 exactly, so the per-edge products are the preset's x4.
noise::NoiseModel cx_error_x4_hardware_model(const noise::DeviceProperties& device) {
  noise::NoiseModelOptions options = noise::NoiseModelOptions::hardware();
  options.hardware_drift_scale = 18.0;
  return noise::NoiseModel::from_device(device, options);
}

// ---- gate-by-gate reference -------------------------------------------------
//
// Simulation as it was before every circuit went through compile_noisy_circuit:
// each gate's matrix is planned for one application and applied in circuit
// order (Barrier and Measure skipped), and a channel's Kraus set is planned
// per call. Kept as the per-gate and per-channel oracle of the compiled path.

namespace ref {

/// `op` on `qubits`, planned and bound for this call only.
void apply(StateVector& sv, const linalg::Matrix& op, const std::vector<int>& qubits) {
  sv.apply_bound(linalg::bind_kernel(
      linalg::plan_kernel(op, qubits, sv.amplitudes().size()), op, qubits));
}

StateVector evolve(const ir::QuantumCircuit& qc) {
  StateVector sv(qc.num_qubits());
  for (const ir::Gate& g : qc.gates())
    if (ir::gate_is_unitary(g.kind)) apply(sv, g.matrix(), g.qubits);
  return sv;
}

std::vector<double> ideal_probabilities(const ir::QuantumCircuit& qc) {
  return evolve(qc).probabilities();
}

DensityMatrix evolve_density(const ir::QuantumCircuit& qc) {
  DensityMatrix rho(qc.num_qubits());
  for (const ir::Gate& g : qc.gates()) {
    if (!ir::gate_is_unitary(g.kind)) continue;
    const linalg::Matrix u = g.matrix();
    rho.apply_unitary(u, linalg::plan_kernel(u, g.qubits, rho.rho().rows()), g.qubits);
  }
  return rho;
}

void apply_channel(DensityMatrix& rho, const noise::Channel& channel,
                   const std::vector<int>& qubits) {
  std::vector<linalg::KernelPlan> plans;
  for (const linalg::Matrix& k : channel.kraus())
    plans.push_back(linalg::plan_kernel(k, qubits, rho.rho().rows()));
  rho.apply_kraus(channel.kraus(), plans, nullptr, qubits);
}

}  // namespace ref

TEST(StateVector, StartsInGroundState) {
  const StateVector sv(3);
  EXPECT_EQ(sv.amplitudes()[0], (cplx{1.0, 0.0}));
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
  EXPECT_NEAR(z_expectation_from_probs(sv.probabilities(), 0), 1.0, 1e-12);
}

TEST(StateVector, BellState) {
  ir::QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  const auto p = ideal_probabilities(qc);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[3], 0.5, 1e-12);
  EXPECT_NEAR(p[1] + p[2], 0.0, 1e-12);
}

TEST(StateVector, GhzOnFiveQubits) {
  ir::QuantumCircuit qc(5);
  qc.h(0);
  for (int q = 0; q < 4; ++q) qc.cx(q, q + 1);
  const auto p = ideal_probabilities(qc);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[31], 0.5, 1e-12);
}

TEST(StateVector, UnitaryEvolutionPreservesNorm) {
  common::Rng rng(3);
  const auto qc = random_basis_circuit(4, 40, rng);
  double mass = 0.0;
  for (double p : ideal_probabilities(qc)) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);
  EXPECT_NEAR(ref::evolve(qc).norm_squared(), 1.0, 1e-9);
}

TEST(StateVector, MatchesCircuitUnitary) {
  common::Rng rng(4);
  const auto qc = random_basis_circuit(3, 20, rng);
  const auto u = qc.to_unitary();
  // Column 0 of U is the evolved |000>: per gate, and through the fused
  // steps of the compiled program.
  const StateVector per_gate = ref::evolve(qc);
  StateVector compiled(3);
  for (const CompiledStep& step :
       compile_noisy_circuit(qc, noise::NoiseModel::ideal(3)).steps)
    compiled.apply_bound(linalg::bind_kernel(step.plan, step.unitary, step.qubits));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(per_gate.amplitudes()[i] - u(i, 0)), 0.0, 1e-9);
    EXPECT_NEAR(std::abs(compiled.amplitudes()[i] - u(i, 0)), 0.0, 1e-9);
  }
}

TEST(StateVector, SampleCountsFollowBorn) {
  ir::QuantumCircuit qc(1);
  qc.ry(2.0 * std::acos(std::sqrt(0.3)), 0);  // P(0)=0.3
  const StateVector sv = ref::evolve(qc);
  common::Rng rng(5);
  std::vector<std::uint64_t> counts(2, 0);
  for (int s = 0; s < 40000; ++s) ++counts[sv.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / 40000.0, 0.3, 0.015);
}

TEST(StateVector, EveryGateKindMatchesTheGenericPath) {
  // A one-gate program's step is gate.matrix() under its kernel plan, applied
  // as statevector_probabilities applies it; the generic embedding of the
  // same matrix is the reference. Bit for bit where the kernels guarantee it
  // (scalar ISA), otherwise within rounding.
  common::Rng rng(63);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<cplx> amps(std::size_t{1} << n);
      double norm2 = 0.0;
      for (cplx& a : amps) {
        a = cplx{rng.normal(), rng.normal()};
        norm2 += std::norm(a);
      }
      for (cplx& a : amps) a /= std::sqrt(norm2);
      const int a = static_cast<int>(rng.uniform_int(n));
      int b = static_cast<int>(rng.uniform_int(n));
      while (b == a) b = static_cast<int>(rng.uniform_int(n));
      const double t = rng.uniform(-3, 3);
      const ir::Gate gates[] = {
          ir::Gate(ir::GateKind::CX, {a, b}),
          ir::Gate(ir::GateKind::CZ, {a, b}),
          ir::Gate(ir::GateKind::Z, {a}),
          ir::Gate(ir::GateKind::S, {a}),
          ir::Gate(ir::GateKind::Sdg, {a}),
          ir::Gate(ir::GateKind::P, {a}, {t}),
          ir::Gate(ir::GateKind::RZ, {a}, {t}),
          ir::Gate(ir::GateKind::H, {a}),
          ir::Gate(ir::GateKind::U3, {a}, {t, rng.uniform(-3, 3), rng.uniform(-3, 3)})};
      for (const ir::Gate& gate : gates) {
        ir::QuantumCircuit qc(n);
        qc.append(gate);
        const CompiledCircuit program = compile_noisy_circuit(
            qc, noise::NoiseModel::ideal(n), {.max_fuse_qubits = 0});
        ASSERT_EQ(program.steps.size(), 1u);
        const CompiledStep& step = program.steps[0];
        StateVector sv(n, amps);
        sv.apply_bound(linalg::bind_kernel(step.plan, step.unitary, step.qubits));
        std::vector<cplx> expect = amps;
        linalg::apply_gate_inplace(expect, gate.matrix(), gate.qubits);
        for (std::size_t i = 0; i < expect.size(); ++i) {
          if (linalg::kernels_bit_exact()) {
            ASSERT_EQ(sv.amplitudes()[i], expect[i]) << ir::gate_name(gate.kind);
          } else {  // the vector ISA may round differently
            ASSERT_NEAR(std::abs(sv.amplitudes()[i] - expect[i]), 0.0, 1e-12)
                << ir::gate_name(gate.kind);
          }
        }
      }
    }
  }
}

TEST(DensityMatrix, PureStateMatchesStateVector) {
  common::Rng rng(6);
  const auto qc = random_basis_circuit(3, 25, rng);
  const DensityMatrix dm = ref::evolve_density(qc);
  const auto psv = ideal_probabilities(qc);
  const auto pdm = dm.probabilities();
  const auto pcompiled =
      density_matrix_probabilities(compile_noisy_circuit(qc, noise::NoiseModel::ideal(3)));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(psv[i], pdm[i], 1e-9);
    EXPECT_NEAR(psv[i], pcompiled[i], 1e-9);
  }
  EXPECT_NEAR(dm.purity(), 1.0, 1e-9);
  EXPECT_NEAR(dm.trace_real(), 1.0, 1e-9);
}

TEST(DensityMatrix, ChannelReducesPurity) {
  ir::QuantumCircuit qc(2);
  qc.h(0);
  DensityMatrix dm = ref::evolve_density(qc);
  ref::apply_channel(dm, noise::depolarizing(0.3, 1), {0});
  EXPECT_LT(dm.purity(), 1.0);
  EXPECT_NEAR(dm.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, FullDepolarizingGivesUniformDiagonal) {
  ir::QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  DensityMatrix dm = ref::evolve_density(qc);
  ref::apply_channel(dm, noise::depolarizing(1.0, 2), {0, 1});
  for (double p : dm.probabilities()) EXPECT_NEAR(p, 0.25, 1e-10);
}

TEST(DensityMatrix, ExpectationZMatchesProbabilities) {
  ir::QuantumCircuit qc(2);
  qc.x(1);
  const auto p = ref::evolve_density(qc).probabilities();
  EXPECT_NEAR(z_expectation_from_probs(p, 0), 1.0, 1e-12);
  EXPECT_NEAR(z_expectation_from_probs(p, 1), -1.0, 1e-12);
}

TEST(Observables, MagnetizationKnownStates) {
  // |00>: m = +1; |11>: m = -1; |01>: m = 0.
  EXPECT_NEAR(average_z_magnetization({1, 0, 0, 0}), 1.0, 1e-12);
  EXPECT_NEAR(average_z_magnetization({0, 0, 0, 1}), -1.0, 1e-12);
  EXPECT_NEAR(average_z_magnetization({0, 1, 0, 0}), 0.0, 1e-12);
}

TEST(Observables, ZExpectationFromProbs) {
  EXPECT_NEAR(z_expectation_from_probs({0.25, 0.75}, 0), -0.5, 1e-12);
}

TEST(Compiled, IdealMatchesStateVector) {
  // ideal_probabilities is the one noise-free path. Unfused, its program is
  // the gate-by-gate loop step for step, so the distributions are equal byte
  // for byte; the default fusion multiplies gates first and agrees to
  // rounding.
  common::Rng rng(8);
  for (int n = 1; n <= 8; ++n) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(::testing::Message() << n << " qubits, rep " << rep);
      const auto qc = random_every_kind_circuit(n, rng);
      const auto reference = ref::ideal_probabilities(qc);
      const auto unfused = statevector_probabilities(
          compile_noisy_circuit(qc, noise::NoiseModel::ideal(n), {.max_fuse_qubits = 0}));
      ASSERT_EQ(unfused.size(), reference.size());
      EXPECT_EQ(std::memcmp(unfused.data(), reference.data(),
                            unfused.size() * sizeof(double)),
                0);
      const auto fused = ideal_probabilities(qc);
      ASSERT_EQ(fused.size(), reference.size());
      for (std::size_t i = 0; i < fused.size(); ++i)
        ASSERT_NEAR(fused[i], reference[i], 1e-12) << "outcome " << i;
    }
  }
}

TEST(Compiled, DensityMatrixAppliesReadoutError) {
  // Identity circuit on 1 qubit of the 5q device: only noise moves
  // probability, and the readout flip from |0> dominates.
  const auto model = noise::simulator_noise_model(noise::device_by_name("ourense"));
  ir::QuantumCircuit qc(1);
  qc.u3(0, 0, 0, 0);  // identity-ish U3 still triggers gate noise channels
  const auto probs = density_matrix_probabilities(compile_noisy_circuit(qc, model));
  EXPECT_GT(probs[1], 0.0);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
}

TEST(Compiled, NoiseDegradesDeepCircuitsMore) {
  const auto model = noise::simulator_noise_model(noise::device_by_name("ourense"));
  ir::QuantumCircuit shallow(2);
  shallow.cx(0, 1);
  ir::QuantumCircuit deep(2);
  for (int i = 0; i < 10; ++i) deep.cx(0, 1);
  // Both implement the same map on |00>; deep should have more weight off 00.
  const auto ps = density_matrix_probabilities(compile_noisy_circuit(shallow, model));
  const auto pd = density_matrix_probabilities(compile_noisy_circuit(deep, model));
  EXPECT_GT(ps[0], pd[0]);
}

TEST(Compiled, TrajectoryConvergesToDensityMatrix) {
  // Three qubits on Ourense (0-1-2 is a path), so CX crosstalk onto the
  // spectator qubit stays inside the register in hardware mode.
  const auto device = noise::device_by_name("ourense");
  ir::QuantumCircuit qc(3);
  qc.u3(1.1, 0.3, -0.2, 0).cx(0, 1).u3(0.4, 0.0, 0.9, 1).cx(1, 2).u3(0.8, -0.5, 0.1, 2);
  for (const bool hardware : {false, true}) {
    SCOPED_TRACE(hardware ? "hardware model" : "simulator model");
    const auto model = hardware ? noise::hardware_noise_model(device)
                                : noise::simulator_noise_model(device);
    const auto compiled = compile_noisy_circuit(qc, model);
    // The program must exercise the Born-weighted Kraus branch (thermal
    // relaxation) and, in hardware mode, crosstalk onto a qubit outside the
    // gate's step.
    bool kraus = false, crosstalk = false;
    for (const auto& step : compiled.steps) {
      for (const auto& op : compiled.noise(step)) {
        kraus = kraus || !op.mixed_unitary;
        for (int q : op.qubits)
          if (std::find(step.qubits.begin(), step.qubits.end(), q) == step.qubits.end())
            crosstalk = true;
      }
    }
    EXPECT_TRUE(kraus);
    EXPECT_EQ(crosstalk, hardware);
    const auto pe = density_matrix_probabilities(compiled);
    const auto pt = metrics::counts_to_distribution(
        trajectory_counts_streamed(compiled, 0, 60000, 2));
    EXPECT_LT(metrics::total_variation(pe, pt), 0.02);
  }
}

TEST(Compiled, TrajectoryDeterministicInSeed) {
  const auto model = noise::simulator_noise_model(noise::device_by_name("rome"));
  ir::QuantumCircuit qc(2);
  qc.u3(0.7, 0.1, 0.2, 0).cx(0, 1);
  const auto compiled = compile_noisy_circuit(qc, model);
  const auto whole = trajectory_counts_streamed(compiled, 0, 500, 42);
  EXPECT_EQ(whole, trajectory_counts_streamed(compiled, 0, 500, 42));
  // Per-shot streams: any split of the shot range sums to the same counts.
  const auto head = trajectory_counts_streamed(compiled, 0, 137, 42);
  const auto tail = trajectory_counts_streamed(compiled, 137, 500, 42);
  for (std::size_t i = 0; i < whole.size(); ++i) EXPECT_EQ(whole[i], head[i] + tail[i]);
}

TEST(Compiled, CircuitWiderThanModelThrows) {
  const auto model = noise::simulator_noise_model(noise::device_by_name("ourense"));
  ir::QuantumCircuit qc(6);
  qc.h(5);
  EXPECT_THROW(compile_noisy_circuit(qc, model), common::Error);
}

TEST(Compiled, CountsSumToShots) {
  ir::QuantumCircuit qc(2);
  qc.h(0).h(1);
  const auto compiled = compile_noisy_circuit(qc, noise::NoiseModel::ideal(2));
  std::size_t completed = 0;
  const auto counts = trajectory_counts_streamed(compiled, 0, 1234, 3,
                                                 common::Deadline::never(), &completed);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 1234u);
  EXPECT_EQ(completed, 1234u);
}

TEST(Compiled, FusionMergesNoiseFreeNeighbours) {
  common::Rng rng(7);
  const auto qc = random_basis_circuit(4, 40, rng);
  const auto model = noise::NoiseModel::ideal(4);
  const auto fused = compile_noisy_circuit(qc, model);
  const auto plain =
      compile_noisy_circuit(qc, model, {.max_fuse_qubits = 0});
  EXPECT_EQ(plain.steps.size(), plain.source_gates);
  EXPECT_EQ(plain.fused_gates, 0u);
  EXPECT_GT(fused.fused_gates, 0u);  // a 4-qubit/40-gate circuit must overlap
  EXPECT_EQ(fused.steps.size() + fused.fused_gates, fused.source_gates);
  EXPECT_EQ(fused.kernel_counts.total(), fused.steps.size());
  for (const auto& step : fused.steps) EXPECT_LE(step.qubits.size(), 4u);
  // Every step counted in fused_blocks_by_k is a genuine multi-gate block.
  std::size_t blocks = 0;
  for (std::size_t k = 1; k < fused.fused_blocks_by_k.size(); ++k)
    blocks += fused.fused_blocks_by_k[k];
  std::size_t multi_source_steps = 0;
  for (const auto& step : fused.steps)
    if (step.source_count > 1) ++multi_source_steps;
  EXPECT_EQ(blocks, multi_source_steps);
  EXPECT_GT(blocks, 0u);
  // Fusion reassociates the matrix products only; the distributions agree to
  // rounding.
  const auto pf = statevector_probabilities(fused);
  const auto pp = statevector_probabilities(plain);
  for (std::size_t i = 0; i < pf.size(); ++i) ASSERT_NEAR(pf[i], pp[i], 1e-12);
}

TEST(Compiled, FusionEquivalenceAcrossMaxFuseWidths) {
  // Randomized fused-vs-unfused equivalence for every fusion cap k in
  // {2, 3, 4}, through both the serial statevector path and the threaded
  // kernel dispatch (parallel_threshold pinned to 1 amplitude).
  common::Rng rng(21);
  const int n = 5;
  std::array<std::size_t, 5> widest_block_seen{};
  for (int max_k : {2, 3, 4}) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto qc = random_basis_circuit(n, 48, rng);
      const auto model = noise::NoiseModel::ideal(n);
      const auto fused =
          compile_noisy_circuit(qc, model, {.max_fuse_qubits = max_k});
      const auto plain =
          compile_noisy_circuit(qc, model, {.max_fuse_qubits = 0});
      for (const auto& step : fused.steps) {
        ASSERT_LE(step.qubits.size(), static_cast<std::size_t>(max_k));
        if (step.source_count > 1)
          widest_block_seen[step.qubits.size()] += 1;
      }
      EXPECT_EQ(fused.steps.size() + fused.fused_gates, fused.source_gates);
      const auto pf = statevector_probabilities(fused);
      const auto pp = statevector_probabilities(plain);
      for (std::size_t i = 0; i < pf.size(); ++i)
        ASSERT_NEAR(pf[i], pp[i], 1e-10);
      // Threaded replay: apply the same compiled steps through the sliced
      // kernel path and compare amplitudes directly.
      const std::size_t dim = std::size_t{1} << n;
      linalg::ApplyOptions threaded;
      threaded.parallel_threshold = 1;
      std::vector<cplx> sf(dim, cplx{0.0, 0.0});
      std::vector<cplx> sp(dim, cplx{0.0, 0.0});
      sf[0] = sp[0] = cplx{1.0, 0.0};
      for (const auto& step : fused.steps)
        linalg::apply_operator(sf, step.unitary, step.qubits, threaded);
      for (const auto& step : plain.steps)
        linalg::apply_operator(sp, step.unitary, step.qubits, threaded);
      for (std::size_t i = 0; i < dim; ++i)
        ASSERT_NEAR(std::abs(sf[i] - sp[i]), 0.0, 1e-10);
    }
  }
  // The k=3/4 caps must actually have produced wide blocks somewhere in the
  // sweep, or the test is vacuously passing on 2q fusion alone.
  EXPECT_GT(widest_block_seen[3] + widest_block_seen[4], 0u);
}

TEST(Compiled, FusionPreservesNoisyEngines) {
  const auto model = noise::simulator_noise_model(noise::device_by_name("ourense"));
  common::Rng rng(9);
  const auto qc = random_basis_circuit(3, 24, rng);
  const auto fused = compile_noisy_circuit(qc, model);
  const auto plain =
      compile_noisy_circuit(qc, model, {.max_fuse_qubits = 0});
  const auto pf = density_matrix_probabilities(fused);
  const auto pp = density_matrix_probabilities(plain);
  for (std::size_t i = 0; i < pf.size(); ++i) ASSERT_NEAR(pf[i], pp[i], 1e-10);
  // Noise ops draw in the same order either way, so per-seed trajectory
  // streams are preserved exactly up to the fused unitaries' rounding.
  const auto cf = trajectory_counts_streamed(fused, 0, 400, 17);
  const auto cp = trajectory_counts_streamed(plain, 0, 400, 17);
  std::uint64_t moved = 0;
  for (std::size_t i = 0; i < cf.size(); ++i)
    moved += cf[i] > cp[i] ? cf[i] - cp[i] : cp[i] - cf[i];
  EXPECT_LE(moved, 8u);  // a rare shot may land on the other side of a cut
}

// ---- density-matrix reference with explicit adjoints ------------------------
//
// DensityMatrix::apply_unitary / apply_kraus as they were while compiled
// programs stored an adjoint beside every operator: the right conjugation is
// handed the explicit adjoint. Kept as the oracle the planned engine, which
// reads conj(op) from each operator's own entries, must match byte for byte.

class AdjointReferenceDensityMatrix {
 public:
  explicit AdjointReferenceDensityMatrix(int num_qubits)
      : rho_(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits) {
    rho_(0, 0) = cplx{1.0, 0.0};
  }
  explicit AdjointReferenceDensityMatrix(const linalg::Matrix& rho) : rho_(rho) {}

  const linalg::Matrix& rho() const { return rho_; }

  void apply_unitary(const linalg::Matrix& u, const linalg::Matrix& u_adjoint,
                     const std::vector<int>& qubits) {
    linalg::left_apply(rho_, u, qubits);
    linalg::right_apply(rho_, u_adjoint, qubits);
  }

  void apply_kraus(const std::vector<linalg::Matrix>& ops,
                   const std::vector<linalg::Matrix>& adjoints,
                   const std::vector<double>* weights,
                   const std::vector<int>& qubits) {
    QC_CHECK(!ops.empty() && ops.size() == adjoints.size());
    QC_CHECK(weights == nullptr || weights->size() == ops.size());
    const std::size_t dim = rho_.rows();
    // The persistent scratch pair is sized on the first channel application and
    // reused (zeroed / copy-assigned in place) on every later one.
    if (scratch_accum_.rows() != dim || scratch_accum_.cols() != dim) {
      scratch_accum_ = linalg::Matrix(dim, dim);
    } else {
      std::fill(scratch_accum_.data(), scratch_accum_.data() + dim * dim,
                cplx{0.0, 0.0});
    }
    double* accum = reinterpret_cast<double*>(scratch_accum_.data());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      scratch_term_ = rho_;
      linalg::left_apply(scratch_term_, ops[i], qubits);
      linalg::right_apply(scratch_term_, adjoints[i], qubits);
      const double* term = reinterpret_cast<const double*>(scratch_term_.data());
      const double w = weights ? (*weights)[i] : 1.0;
      for (std::size_t j = 0; j < 2 * dim * dim; ++j) accum[j] += w * term[j];
    }
    std::swap(rho_, scratch_accum_);
  }

  /// density_matrix_probabilities' read-out: diagonal, readout confusion,
  /// normalization.
  std::vector<double> probabilities(const CompiledCircuit& compiled) const {
    std::vector<double> p(rho_.rows());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = std::max(0.0, rho_(i, i).real());
    return metrics::normalized(noise::apply_readout_error(p, compiled.readout));
  }

 private:
  linalg::Matrix rho_;
  linalg::Matrix scratch_term_;
  linalg::Matrix scratch_accum_;
};

std::vector<double> adjoint_reference_probabilities(const CompiledCircuit& compiled) {
  AdjointReferenceDensityMatrix rho(compiled.num_qubits);
  for (const CompiledStep& step : compiled.steps) {
    rho.apply_unitary(step.unitary, step.unitary.adjoint(), step.qubits);
    for (const CompiledNoiseOp& op : compiled.noise(step)) {
      std::vector<linalg::Matrix> adjoints;
      for (const linalg::Matrix& k : op.operators) adjoints.push_back(k.adjoint());
      rho.apply_kraus(op.operators, adjoints, op.mixed_unitary ? &op.probs : nullptr,
                      op.qubits);
    }
  }
  return rho.probabilities(compiled);
}

TEST(Compiled, DensityMatrixMatchesAdjointReferenceBitwise) {
  const auto device = noise::device_by_name("rome");
  const std::vector<std::pair<const char*, noise::NoiseModel>> models = {
      {"simulator", noise::simulator_noise_model(device)},
      {"hardware", noise::hardware_noise_model(device)},
  };
  const simd_test::SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : simd_test::forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(41);
    std::array<std::size_t, 5> blocks_by_k{};
    for (int n = 2; n <= 5; ++n) {
      for (int rep = 0; rep < 2; ++rep) {
        // Every gate carries noise under a device model, so nothing fuses there;
        // splice in the fused blocks of a noise-free program of the same width
        // (plans are per span, so its steps run unchanged in the noisy one).
        const auto blocks = compile_noisy_circuit(random_basis_circuit(n, 8 * n, rng),
                                                  noise::NoiseModel::ideal(n));
        const auto qc = random_basis_circuit(n, 5 * n, rng);
        for (const auto& [name, model] : models) {
          SCOPED_TRACE(::testing::Message() << n << " qubits, " << name << " model");
          auto compiled = compile_noisy_circuit(qc, model);
          std::vector<CompiledStep> spliced;
          for (std::size_t i = 0; i < compiled.steps.size(); ++i) {
            spliced.push_back(compiled.steps[i]);
            if (i < blocks.steps.size()) spliced.push_back(blocks.steps[i]);
          }
          compiled.steps = std::move(spliced);
          for (const CompiledStep& step : compiled.steps)
            if (step.source_count > 1) ++blocks_by_k[step.qubits.size()];
          const auto planned = density_matrix_probabilities(compiled);
          const auto reference = adjoint_reference_probabilities(compiled);
          ASSERT_EQ(planned.size(), reference.size());
          ASSERT_EQ(std::memcmp(planned.data(), reference.data(),
                                planned.size() * sizeof(double)),
                    0);
        }
      }
    }
    // The sweep must reach the fused 3q/4q kernels, not only 1q/2q gates.
    EXPECT_GT(blocks_by_k[3], 0u);
    EXPECT_GT(blocks_by_k[4], 0u);
  }
}

bool same_bytes(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(cplx)) == 0;
}

/// Kraus sets on two qubits that reach the one-pass permutation-phase
/// conjugation in every shape a channel can take it: each set with its
/// weights (null for the plain Kraus form).
std::vector<std::pair<std::vector<linalg::Matrix>, std::vector<double>>> perm_phase_channels(
    common::Rng& rng) {
  static const char* const kPaulis[] = {"II", "IX", "IY", "IZ", "XI", "XX", "XY", "XZ",
                                        "YI", "YX", "YY", "YZ", "ZI", "ZX", "ZY", "ZZ"};
  std::vector<std::pair<std::vector<linalg::Matrix>, std::vector<double>>> channels;
  // A random Pauli-product set with random branch weights: the mixed-unitary
  // form of the device models' depolarizing channels, perm-phase and diagonal
  // products in random order.
  std::vector<linalg::Matrix> paulis;
  std::vector<double> weights;
  for (int i = 0; i < 6; ++i) {
    paulis.push_back(linalg::pauli_string(kPaulis[rng.uniform_int(16)]));
    weights.push_back(rng.uniform(0.01, 1.0));
  }
  channels.emplace_back(paulis, weights);
  // The plain Kraus form: sqrt(p_i) P_i for all sixteen products.
  channels.emplace_back(noise::depolarizing(rng.uniform(0.01, 0.3), 2).kraus(),
                        std::vector<double>{});
  // Non-unit phases: ±i, a random unit phase and sqrt(p) X⊗X.
  const double p = rng.uniform(0.01, 0.3);
  const double theta = rng.uniform(-3.0, 3.0);
  channels.emplace_back(
      std::vector<linalg::Matrix>{linalg::pauli_string("XZ") * cplx{0.0, 1.0},
                                  linalg::pauli_string("YX") * cplx{0.0, -1.0},
                                  linalg::pauli_string("XX") * cplx{std::sqrt(p), 0.0},
                                  linalg::pauli_string("YY") * std::polar(std::sqrt(1 - p), theta)},
      std::vector<double>{});
  // Pure swaps: CX with the first operator qubit as control, and SWAP.
  linalg::Matrix cx(4, 4), swap(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    cx(r, (r & 1U) ? (r ^ 2U) : r) = cplx{1.0, 0.0};
    swap(r, ((r & 1U) << 1) | (r >> 1)) = cplx{1.0, 0.0};
  }
  channels.emplace_back(std::vector<linalg::Matrix>{cx, swap}, std::vector<double>{0.375, 0.625});
  // Perm-phase terms interleaved with diagonal and dense ones.
  linalg::Matrix diag(4, 4);
  for (std::size_t r = 0; r < 4; ++r) diag(r, r) = std::polar(1.0, rng.uniform(-3.0, 3.0));
  channels.emplace_back(
      std::vector<linalg::Matrix>{linalg::pauli_string("XI"), linalg::pauli_string("ZZ"),
                                  linalg::random_unitary(4, rng), linalg::pauli_string("YY"),
                                  diag, cx},
      std::vector<double>{0.1, 0.2, 0.05, 0.3, 0.15, 0.2});
  return channels;
}

TEST(DensityMatrix, PermPhaseKrausMatchesReferenceBitwise) {
  // The whole rho after each channel, against the copy / left / right / axpy
  // form of the adjoint reference, at every ISA. Each perm-phase term is also
  // gathered with the row slicing forced (parallel_threshold = 1) and must
  // match the serial gather; ctest also runs this test at one and at four
  // pool workers.
  const simd_test::SimdIsaRestorer restore;
  std::array<std::size_t, linalg::kNumKernelKinds> terms_by_kind{};
  std::size_t pure_swaps = 0;
  for (const linalg::SimdIsa isa : simd_test::forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    common::Rng rng(83);
    for (int n = 2; n <= 5; ++n) {
      const std::size_t dim = std::size_t{1} << n;
      for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
          if (a == b) continue;
          SCOPED_TRACE(::testing::Message() << linalg::simd_isa_name(isa) << ", " << n
                                            << " qubits on (" << a << ", " << b << ")");
          std::vector<cplx> amplitudes(dim);
          double norm = 0.0;
          for (cplx& x : amplitudes) {
            x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            norm += std::norm(x);
          }
          for (cplx& x : amplitudes) x /= std::sqrt(norm);
          DensityMatrix rho(n, amplitudes);
          AdjointReferenceDensityMatrix reference(rho.rho());
          const std::vector<int> qubits = {a, b};
          // One channel after another, so later ones act on mixed states.
          for (const auto& [ops, weights] : perm_phase_channels(rng)) {
            std::vector<linalg::KernelPlan> plans;
            std::vector<linalg::Matrix> adjoints;
            for (std::size_t i = 0; i < ops.size(); ++i) {
              plans.push_back(linalg::plan_kernel(ops[i], qubits, dim));
              adjoints.push_back(ops[i].adjoint());
              ++terms_by_kind[static_cast<std::size_t>(plans.back().kind)];
              pure_swaps += plans.back().pure_swap;
              if (plans.back().kind != linalg::KernelKind::TwoQPermPhase) continue;
              linalg::Matrix serial = reference.rho() * cplx{0.5, 0.25};
              linalg::Matrix sliced = serial;
              const double w = weights.empty() ? 1.0 : weights[i];
              linalg::add_perm_phase_conjugation(serial, rho.rho(), ops[i], plans.back(), w);
              linalg::add_perm_phase_conjugation(sliced, rho.rho(), ops[i], plans.back(), w,
                                                 linalg::ApplyOptions{1});
              ASSERT_TRUE(same_bytes(serial, sliced));
            }
            const std::vector<double>* w = weights.empty() ? nullptr : &weights;
            rho.apply_kraus(ops, plans, w, qubits);
            reference.apply_kraus(ops, adjoints, w, qubits);
            ASSERT_TRUE(same_bytes(rho.rho(), reference.rho()));
          }
        }
      }
    }
  }
  EXPECT_GT(terms_by_kind[static_cast<std::size_t>(linalg::KernelKind::TwoQPermPhase)], 0u);
  EXPECT_GT(terms_by_kind[static_cast<std::size_t>(linalg::KernelKind::TwoQDiag)], 0u);
  EXPECT_GT(terms_by_kind[static_cast<std::size_t>(linalg::KernelKind::TwoQGeneral)], 0u);
  EXPECT_GT(pure_swaps, 0u);
}

TEST(DensityMatrix, PermPhaseConjugationRefusesOtherKindsAndAliasing) {
  common::Rng rng(84);
  const linalg::Matrix x = linalg::pauli_string("XY");
  const linalg::KernelPlan plan = linalg::plan_kernel(x, {0, 2}, 8);
  linalg::Matrix rho = linalg::random_unitary(8, rng);
  linalg::Matrix acc(8, 8);
  EXPECT_NO_THROW(linalg::add_perm_phase_conjugation(acc, rho, x, plan, 0.5));
  EXPECT_THROW(linalg::add_perm_phase_conjugation(rho, rho, x, plan, 0.5), common::Error);
  const linalg::Matrix z = linalg::pauli_string("ZZ");
  EXPECT_THROW(linalg::add_perm_phase_conjugation(acc, rho, z, linalg::plan_kernel(z, {0, 2}, 8),
                                                  0.5),
               common::Error);
  linalg::Matrix acc16(16, 16);
  const linalg::Matrix rho16 = linalg::random_unitary(16, rng);
  EXPECT_THROW(linalg::add_perm_phase_conjugation(acc16, rho16, x, plan, 0.5), common::Error);
}

TEST(Compiled, RandomCircuitsTrajectoryAgreesWithDensityMatrix) {
  // The two production engines on seeded random circuits of 2..5 qubits under
  // both device models: the trajectory counts stay within a shot-scaled total
  // variation of the exact distribution. Sampling alone gives a total
  // variation of about 0.4 sqrt(2^n / shots) on average, so the bound
  // 4 sqrt(2^n / shots) is ten times that.
  const auto device = noise::device_by_name("rome");
  common::Rng rng(97);
  for (int n = 2; n <= 5; ++n) {
    for (int rep = 0; rep < 2; ++rep) {
      const auto qc = random_basis_circuit(n, 6 * n, rng);
      for (const bool hardware : {false, true}) {
        SCOPED_TRACE(::testing::Message() << n << " qubits, circuit " << rep << ", "
                                          << (hardware ? "hardware" : "simulator") << " model");
        const auto model = hardware ? noise::hardware_noise_model(device)
                                    : noise::simulator_noise_model(device);
        const auto compiled = compile_noisy_circuit(qc, model);
        const std::size_t shots = std::size_t{2000} << n;
        const auto exact = density_matrix_probabilities(compiled);
        const auto sampled = metrics::counts_to_distribution(
            trajectory_counts_streamed(compiled, 0, shots, rng.next()));
        const double bound = 4.0 * std::sqrt(static_cast<double>(exact.size()) /
                                             static_cast<double>(shots));
        EXPECT_LT(metrics::total_variation(exact, sampled), bound);
      }
    }
  }
}

// ---- per-shot reference -----------------------------------------------------
//
// The per-shot trajectory replay the shot tree replaced: |0...0> through every
// compiled step for each shot alone. Kept as the oracle the shot tree must
// match exactly.

/// Per-task reusable buffers for trajectory evolution: one state vector that
/// is reset (not reallocated) every shot, plus a branch scratch for
/// Born-weighted Kraus selection.
struct TrajectoryScratch {
  explicit TrajectoryScratch(int num_qubits)
      : state(num_qubits), branch(num_qubits) {}
  StateVector state;
  StateVector branch;
  std::vector<double> weights;
};

const linalg::Matrix& nan_matrix() {
  static const linalg::Matrix m = [] {
    const auto nan = std::numeric_limits<double>::quiet_NaN();
    linalg::Matrix out(2, 2);
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < 2; ++c) out(r, c) = linalg::cplx(nan, nan);
    return out;
  }();
  return m;
}

void check_state_norm(double norm_squared) {
  if (std::fabs(norm_squared - 1.0) <= kNormDriftTolerance) return;
  throw common::SimulationError("trajectory state corrupt");
}

/// Evolves one shot: |0...0> through every compiled step, measurement sample,
/// readout bit flips. All randomness is drawn from `rng` in a fixed order;
/// `scratch` is reset, not reallocated, so a shot loop reuses one. Throws
/// SimulationError when the final state fails the norm-drift guard.
/// `fault_stream` keys deterministic NaN injection (faults::Site::StateNan);
/// callers with no stable stream id pass 0.
std::uint64_t run_trajectory_shot(const CompiledCircuit& compiled, common::Rng& rng,
                                  TrajectoryScratch& scratch,
                                  std::uint64_t fault_stream = 0) {
  StateVector& state = scratch.state;
  state.reset();
  for (const CompiledStep& step : compiled.steps) {
    ref::apply(state, step.unitary, step.qubits);
    for (const CompiledNoiseOp& op : compiled.noise(step)) {
      if (op.mixed_unitary) {
        // Branch weights are state independent: sample, apply one unitary.
        const std::size_t pick = rng.discrete(op.probs);
        ref::apply(state, op.operators[pick], op.qubits);
        continue;
      }
      // General quantum-trajectory step: Born weights p_i = ||K_i psi||^2,
      // evaluated on the single branch scratch instead of materializing every
      // branch; the picked operator is then re-applied to the live state.
      scratch.weights.resize(op.operators.size());
      for (std::size_t i = 0; i < op.operators.size(); ++i) {
        scratch.branch = state;
        ref::apply(scratch.branch, op.operators[i], op.qubits);
        scratch.weights[i] = scratch.branch.norm_squared();
      }
      const std::size_t pick = rng.discrete(scratch.weights);
      ref::apply(state, op.operators[pick], op.qubits);
      state.normalize();
    }
  }
  // Fault firing never touches `rng`, so non-faulted shots draw the exact
  // same stream with or without injection armed.
  if (common::faults::enabled() &&
      common::faults::fires(common::faults::Site::StateNan, fault_stream)) {
    ref::apply(state, nan_matrix(), {0});
  }
  check_state_norm(state.norm_squared());
  std::uint64_t outcome = state.sample(rng);
  return noise::sample_readout_flip(outcome, compiled.readout, rng);
}

/// The per-shot oracle: outcome of every shot in [0, shots), one stream per
/// shot index.
std::vector<std::uint64_t> per_shot_outcomes(const CompiledCircuit& compiled,
                                             std::size_t shots, std::uint64_t seed) {
  std::vector<std::uint64_t> outcomes;
  TrajectoryScratch scratch(compiled.num_qubits);
  for (std::size_t shot = 0; shot < shots; ++shot) {
    const std::uint64_t stream = common::derive_stream_seed(seed, shot);
    common::Rng rng(stream);
    outcomes.push_back(run_trajectory_shot(compiled, rng, scratch, stream));
  }
  return outcomes;
}

TEST(Compiled, ShotTreeMatchesPerShotOracle) {
  const auto device = noise::device_by_name("rome");
  const std::vector<std::pair<const char*, noise::NoiseModel>> models = {
      {"simulator", noise::simulator_noise_model(device)},
      {"hardware", noise::hardware_noise_model(device)},
      {"hardware, CX error x4", cx_error_x4_hardware_model(device)},
  };
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 1}, {0, 137}, {137, 500}, {0, 500}};
  common::Rng rng(31);
  std::size_t split_runs = 0;
  for (int n = 2; n <= 5; ++n) {
    const auto qc = random_basis_circuit(n, 6 * n, rng);
    for (const auto& [name, model] : models) {
      const auto compiled = compile_noisy_circuit(qc, model);
      for (const std::uint64_t seed : {3u, 77u, 2024u}) {
        const auto outcomes = per_shot_outcomes(compiled, 500, seed);
        for (const auto& [begin, end] : ranges) {
          SCOPED_TRACE(::testing::Message() << n << " qubits, " << name << " model, seed "
                                            << seed << ", shots [" << begin << ", "
                                            << end << ")");
          std::size_t completed = 0, leaves = 0;
          const auto tree = trajectory_counts_streamed(
              compiled, begin, end, seed, common::Deadline::never(), &completed, &leaves);
          std::vector<std::uint64_t> oracle(tree.size(), 0);
          for (std::size_t shot = begin; shot < end; ++shot) ++oracle[outcomes[shot]];
          ASSERT_EQ(tree, oracle);
          EXPECT_EQ(completed, end - begin);
          EXPECT_GE(leaves, 1u);
          EXPECT_LE(leaves, end - begin);
          if (leaves > 1) ++split_runs;
        }
      }
    }
  }
  // The sweep must exercise real splits, not only single-leaf trees.
  EXPECT_GT(split_runs, 0u);
}

// ---- per-gate compile reference ---------------------------------------------
//
// compile_noisy_circuit as it was before noise lists were interned: the model
// is asked for the noise of every gate, and every step owns a converted,
// planned copy of it. Kept as the oracle the interned program must match bit
// for bit.

struct ReferenceProgram {
  std::vector<CompiledStep> steps;                   // `noise` unused
  std::vector<std::vector<CompiledNoiseOp>> noise;  // per step
  std::size_t fused_gates = 0;
};

/// Folds `u` on `qubits` into `prev` (prev runs first) when they share a qubit
/// and their union stays within `max_qubits`.
bool reference_fuse_into(CompiledStep& prev, const linalg::Matrix& u,
                         const std::vector<int>& qubits, std::size_t max_qubits) {
  std::vector<int> merged = prev.qubits;
  bool overlap = false;
  for (int q : qubits) {
    if (std::find(merged.begin(), merged.end(), q) != merged.end())
      overlap = true;
    else
      merged.push_back(q);
  }
  if (!overlap || merged.size() > max_qubits) return false;
  std::sort(merged.begin(), merged.end());
  const auto positions = [&merged](const std::vector<int>& qs) {
    std::vector<int> out;
    for (int q : qs)
      out.push_back(static_cast<int>(
          std::find(merged.begin(), merged.end(), q) - merged.begin()));
    return out;
  };
  const int k = static_cast<int>(merged.size());
  prev.unitary = linalg::embed(u, positions(qubits), k) *
                 linalg::embed(prev.unitary, positions(prev.qubits), k);
  prev.qubits = std::move(merged);
  ++prev.source_count;
  return true;
}

ReferenceProgram per_gate_reference(const ir::QuantumCircuit& circuit,
                                    const noise::NoiseModel& model,
                                    int max_fuse_qubits) {
  ReferenceProgram ref;
  const std::size_t max_fuse =
      static_cast<std::size_t>(std::clamp(max_fuse_qubits, 0, 4));
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind == ir::GateKind::Measure || g.kind == ir::GateKind::Barrier) continue;
    CompiledStep step{g.qubits, g.matrix()};
    std::vector<CompiledNoiseOp> noise;
    for (noise::NoiseOp& op : model.ops_for_gate(g)) {
      bool in_range = true;
      for (int q : op.qubits)
        if (q >= circuit.num_qubits()) in_range = false;
      if (!in_range) continue;
      CompiledNoiseOp cop;
      cop.qubits = op.qubits;
      cop.mixed_unitary = op.channel.mixed_unitary_form(cop.probs, cop.operators);
      if (!cop.mixed_unitary) cop.operators = op.channel.kraus();
      noise.push_back(std::move(cop));
    }
    if (max_fuse > 0 && !ref.steps.empty() && ref.noise.back().empty() &&
        reference_fuse_into(ref.steps.back(), step.unitary, step.qubits, max_fuse)) {
      ref.noise.back() = std::move(noise);
      ++ref.fused_gates;
      continue;
    }
    ref.steps.push_back(std::move(step));
    ref.noise.push_back(std::move(noise));
  }
  const std::size_t dim = std::size_t{1} << circuit.num_qubits();
  for (std::size_t i = 0; i < ref.steps.size(); ++i) {
    CompiledStep& step = ref.steps[i];
    step.plan = linalg::plan_kernel(step.unitary, step.qubits, dim);
    for (CompiledNoiseOp& op : ref.noise[i])
      for (const linalg::Matrix& k : op.operators)
        op.plans.push_back(linalg::plan_kernel(k, op.qubits, dim));
  }
  return ref;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(cplx)) == 0;
}

/// Asserts that `compiled` is `ref` with its noise interned: the same steps,
/// and every step's noise list bit-identical to the step's own copy.
void expect_matches_reference(const CompiledCircuit& compiled,
                              const ReferenceProgram& ref) {
  ASSERT_EQ(compiled.steps.size(), ref.steps.size());
  EXPECT_EQ(compiled.fused_gates, ref.fused_gates);
  for (std::size_t i = 0; i < ref.steps.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "step " << i);
    const CompiledStep& step = compiled.steps[i];
    EXPECT_EQ(step.qubits, ref.steps[i].qubits);
    EXPECT_EQ(step.source_count, ref.steps[i].source_count);
    EXPECT_TRUE(same_bits(step.unitary, ref.steps[i].unitary));
    EXPECT_EQ(std::memcmp(&step.plan, &ref.steps[i].plan, sizeof step.plan), 0);
    const auto noise = compiled.noise(step);
    EXPECT_EQ(step.noise == kNoNoise, ref.noise[i].empty());
    ASSERT_EQ(noise.size(), ref.noise[i].size());
    for (std::size_t j = 0; j < noise.size(); ++j) {
      const CompiledNoiseOp& got = noise[j];
      const CompiledNoiseOp& want = ref.noise[i][j];
      EXPECT_EQ(got.qubits, want.qubits);
      EXPECT_EQ(got.mixed_unitary, want.mixed_unitary);
      EXPECT_TRUE(same_bits(got.probs, want.probs));
      ASSERT_EQ(got.operators.size(), want.operators.size());
      for (std::size_t k = 0; k < want.operators.size(); ++k)
        EXPECT_TRUE(same_bits(got.operators[k], want.operators[k]));
      EXPECT_TRUE(same_bits(got.plans, want.plans));
    }
  }
}

TEST(Compiled, InternedNoiseMatchesPerGateReference) {
  const auto rome = noise::device_by_name("rome");
  const std::vector<std::pair<const char*, noise::NoiseModel>> models = {
      {"rome simulator", noise::simulator_noise_model(rome)},
      {"rome hardware", noise::hardware_noise_model(rome)},
      {"ideal", noise::NoiseModel::ideal(5)},
  };
  common::Rng rng(53);
  for (int n = 1; n <= 5; ++n) {
    const auto qc = random_basis_circuit(n, 8 * n, rng);
    for (const auto& [name, model] : models) {
      for (const int max_fuse : {0, 4}) {
        SCOPED_TRACE(::testing::Message() << n << " qubits, " << name
                                          << " model, max_fuse_qubits " << max_fuse);
        const auto compiled = compile_noisy_circuit(qc, model, {max_fuse});
        expect_matches_reference(compiled, per_gate_reference(qc, model, max_fuse));
        // One list per distinct gate-qubit tuple that carries noise, each used.
        std::vector<std::vector<int>> tuples;
        for (const ir::Gate& g : qc.gates())
          if (std::find(tuples.begin(), tuples.end(), g.qubits) == tuples.end())
            tuples.push_back(g.qubits);
        EXPECT_LE(compiled.noise_lists.size(), tuples.size());
        std::vector<bool> used(compiled.noise_lists.size(), false);
        for (const CompiledStep& step : compiled.steps)
          if (step.noise != kNoNoise) used.at(step.noise) = true;
        EXPECT_EQ(std::count(used.begin(), used.end(), false), 0);
      }
    }
  }
}

TEST(Compiled, InternedNoiseDropsSpectatorsBeyondTheRegister) {
  // Manhattan's hardware model puts ZZ crosstalk on every idle neighbour of a
  // CX; a 3-qubit register leaves some neighbours outside it.
  const auto model = noise::hardware_noise_model(noise::device_by_name("manhattan"));
  ir::QuantumCircuit qc(3);
  qc.cx(0, 1).u3(0.3, 0.2, 0.1, 2).cx(1, 2).cx(0, 1).u3(0.5, 0.4, 0.3, 0).cx(2, 1);
  bool spectator_beyond = false;
  for (const ir::Gate& g : qc.gates())
    for (const noise::NoiseOp& op : model.ops_for_gate(g))
      for (int q : op.qubits) spectator_beyond = spectator_beyond || q >= qc.num_qubits();
  ASSERT_TRUE(spectator_beyond);
  for (const int max_fuse : {0, 4}) {
    SCOPED_TRACE(::testing::Message() << "max_fuse_qubits " << max_fuse);
    const auto compiled = compile_noisy_circuit(qc, model, {max_fuse});
    expect_matches_reference(compiled, per_gate_reference(qc, model, max_fuse));
    // Six gates on five distinct qubit tuples: (1, 2) and (2, 1) differ.
    EXPECT_EQ(compiled.noise_lists.size(), 5u);
  }
}

TEST(Compiled, NanFaultFailsExactlyTheRangesWithAFaultedShot) {
  // A fractional NaN rate poisons the leaves of some shots: a range fails
  // iff a shot in it has a firing stream, and every other range is
  // bit-identical to a clean run.
  struct Disarm {
    ~Disarm() { common::faults::install_spec(""); }
  } disarm;
  const auto model = noise::hardware_noise_model(noise::device_by_name("rome"));
  common::Rng rng(5);
  const auto compiled = compile_noisy_circuit(random_basis_circuit(3, 18, rng), model);
  constexpr std::size_t kShots = 64;
  std::vector<std::vector<std::uint64_t>> clean;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    clean.push_back(trajectory_counts_streamed(compiled, 0, kShots, seed));

  common::faults::install_spec("nan:0.01,seed=9");
  std::size_t failed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    bool faulted = false;
    for (std::size_t shot = 0; shot < kShots; ++shot)
      faulted = faulted || common::faults::fires(common::faults::Site::StateNan,
                                                 common::derive_stream_seed(seed, shot));
    if (faulted) {
      ++failed;
      EXPECT_THROW(trajectory_counts_streamed(compiled, 0, kShots, seed),
                   common::SimulationError);
    } else {
      EXPECT_EQ(trajectory_counts_streamed(compiled, 0, kShots, seed), clean[seed - 1]);
    }
  }
  // 1 - 0.99^64 ~ 0.47 per range: both outcomes must occur among 12 ranges.
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, 12u);
}

TEST(Compiled, ExpiredDeadlineSamplesNoShots) {
  const auto model = noise::hardware_noise_model(noise::device_by_name("rome"));
  common::Rng rng(8);
  const auto compiled = compile_noisy_circuit(random_basis_circuit(3, 12, rng), model);
  std::size_t completed = 1, leaves = 1;
  const auto counts = trajectory_counts_streamed(compiled, 0, 256, 4,
                                                 common::Deadline::after_ms(0),
                                                 &completed, &leaves);
  EXPECT_EQ(completed, 0u);
  EXPECT_EQ(leaves, 0u);
  for (auto c : counts) EXPECT_EQ(c, 0u);
}

TEST(Compiled, DeadlineMidRangeCountsOnlyCompletedShots) {
  const auto model = cx_error_x4_hardware_model(noise::device_by_name("rome"));
  common::Rng rng(12);
  const auto compiled = compile_noisy_circuit(random_basis_circuit(5, 60, rng), model);
  constexpr std::size_t kShots = 20000;
  std::size_t completed = 0;
  const auto counts = trajectory_counts_streamed(compiled, 0, kShots, 6,
                                                 common::Deadline::after_ms(2), &completed);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, completed);
  EXPECT_LE(completed, kShots);
}

}  // namespace
}  // namespace qc::sim
