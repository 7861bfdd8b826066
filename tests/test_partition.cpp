// Tests for the partitioned-synthesis pipeline: the DAG-aware partitioner
// (linearization correctness, edge cases), canonical dedupe keys, the
// noise-weighted budget allocator, parallel-vs-serial bit-identity, and the
// workflow/report integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "algos/tfim.hpp"
#include "approx/workflow.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "metrics/process.hpp"
#include "noise/device.hpp"
#include "synth/cache.hpp"
#include "synth/partition.hpp"
#include "transpile/decompose.hpp"

namespace qc {
namespace {

using ir::GateKind;
using ir::QuantumCircuit;
using linalg::Matrix;

QuantumCircuit reassemble(const std::vector<synth::Partition>& parts, int num_qubits) {
  QuantumCircuit rebuilt(num_qubits);
  for (const auto& p : parts) rebuilt.append_mapped(p.sub_circuit, p.qubits);
  return rebuilt;
}

// ---- DAG partitioner -------------------------------------------------------

TEST(DagPartition, ReassemblyIsExactOnRandomCircuits) {
  // The load-bearing property: emission order is a valid linearization of
  // the block DAG, so stitching the blocks back in order reproduces the
  // unitary exactly — even on adversarial interleavings.
  common::Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    QuantumCircuit qc(5);
    for (int g = 0; g < 60; ++g) {
      if (rng.uniform(0.0, 1.0) < 0.35) {
        qc.u3(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
              rng.uniform(-3.0, 3.0), static_cast<int>(rng.next() % 5));
      } else {
        const int a = static_cast<int>(rng.next() % 5);
        int b = static_cast<int>(rng.next() % 5);
        while (b == a) b = static_cast<int>(rng.next() % 5);
        qc.cx(a, b);
      }
    }
    const auto parts = synth::partition_circuit_dag(qc, 3);
    std::size_t total = 0;
    for (const auto& p : parts) {
      EXPECT_LE(p.qubits.size(), 3u);
      total += p.sub_circuit.size();
    }
    EXPECT_EQ(total, qc.size());
    EXPECT_LT(metrics::hs_distance(qc.to_unitary(),
                                   reassemble(parts, 5).to_unitary()),
              1e-7);
  }
}

TEST(DagPartition, CoalescesInterleavedDisjointGates) {
  // Strictly interleaved streams on disjoint pairs: a strict gate-order scan
  // would cut a block at every other gate, the DAG window keeps one block
  // per stream holding all four of its gates.
  QuantumCircuit qc(4);
  for (int r = 0; r < 4; ++r) qc.cx(0, 1).cx(2, 3);
  const auto dag = synth::partition_circuit_dag(qc, 2);
  ASSERT_EQ(dag.size(), 2u);
  std::set<std::vector<int>> supports;
  for (const auto& p : dag) {
    EXPECT_EQ(p.sub_circuit.size(), 4u);
    supports.insert(p.qubits);
  }
  EXPECT_EQ(supports, (std::set<std::vector<int>>{{0, 1}, {2, 3}}));
  EXPECT_LT(metrics::hs_distance(qc.to_unitary(),
                                 reassemble(dag, 4).to_unitary()),
            1e-9);
}

TEST(DagPartition, BarrierClosesAllOpenBlocksAndFlushesDeferred) {
  QuantumCircuit qc(4);
  qc.cx(0, 1).cx(2, 3);
  qc.rx(0.3, 2);  // absorbed: qubit 2 is owned
  qc.barrier();
  qc.cx(0, 1).cx(2, 3);
  const auto parts = synth::partition_circuit_dag(qc, 2);
  EXPECT_EQ(parts.size(), 4u);
  for (const auto& p : parts) {
    const std::size_t cut = qc.size() / 2;  // barrier position by gate index
    EXPECT_TRUE(p.last_gate < cut || p.first_gate > cut);
  }

  // A deferred 1q gate with no later acquirer flushes at the barrier too.
  QuantumCircuit lone(2);
  lone.rx(0.5, 1);
  lone.barrier();
  lone.cx(0, 1);
  const auto parts2 = synth::partition_circuit_dag(lone, 2);
  EXPECT_EQ(parts2.size(), 2u);
  std::size_t total = 0;
  for (const auto& p : parts2) total += p.sub_circuit.size();
  EXPECT_EQ(total, 2u);
}

TEST(DagPartition, IdleQubitsStayOutOfBlocks) {
  QuantumCircuit qc(6);
  qc.cx(0, 1).rz(0.2, 1).cx(0, 1);
  const auto parts = synth::partition_circuit_dag(qc, 3);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].qubits, (std::vector<int>{0, 1}));
  EXPECT_LT(metrics::hs_distance(qc.to_unitary(),
                                 reassemble(parts, 6).to_unitary()),
            1e-9);
}

TEST(DagPartition, EmptyAndSingleGateCircuits) {
  QuantumCircuit empty(3);
  EXPECT_TRUE(synth::partition_circuit_dag(empty, 2).empty());

  QuantumCircuit one(3);
  one.cx(1, 2);
  const auto parts = synth::partition_circuit_dag(one, 2);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].sub_circuit.size(), 1u);

  QuantumCircuit lone_rx(3);
  lone_rx.rx(0.7, 1);  // deferred, flushed as a singleton at the end
  const auto parts2 = synth::partition_circuit_dag(lone_rx, 2);
  ASSERT_EQ(parts2.size(), 1u);
  EXPECT_EQ(parts2[0].qubits, (std::vector<int>{1}));
}

TEST(DagPartition, RejectsOversizedGatesAndMeasure) {
  QuantumCircuit wide(3);
  wide.ccx(0, 1, 2);
  EXPECT_THROW(synth::partition_circuit_dag(wide, 2), common::Error);

  QuantumCircuit measured(2);
  measured.cx(0, 1).measure_all();
  EXPECT_THROW(synth::partition_circuit_dag(measured, 2), common::Error);
}

// ---- canonical block keys --------------------------------------------------

TEST(BlockKey, ExactDiscriminatorsBreakHashCollisions) {
  // Mirrors the engine-cache key fix: equal 64-bit fingerprints alone must
  // not alias two problems whose exact shapes differ.
  synth::BlockKey a;
  a.unitary_fp = 0x1234;
  a.circuit_fp = 0x5678;
  a.dim = 8;
  a.num_qubits = 3;
  a.gate_count = 9;
  a.cx_count = 4;
  a.max_cnots = 3;
  synth::BlockKey b = a;
  EXPECT_EQ(a, b);
  b.dim = 4;
  EXPECT_NE(a, b);
  b = a;
  b.num_qubits = 2;
  EXPECT_NE(a, b);
  b = a;
  b.gate_count = 10;
  EXPECT_NE(a, b);
  b = a;
  b.cx_count = 2;
  EXPECT_NE(a, b);
  b = a;
  b.max_cnots = 1;  // same block content, different search cap: new problem
  EXPECT_NE(a, b);
}

TEST(Resynthesis, DedupeCollapsesRecurringBlocks) {
  // The same Trotter step repeated: canonical dedupe must collapse the
  // recurring blocks to a handful of unique searches.
  algos::TfimModel model;
  model.num_qubits = 5;
  model.dt = 0.05;  // small-angle steps compress within the default budget
  QuantumCircuit qc(5);
  for (int s = 0; s < 6; ++s) qc.append(model.step_circuit(1));

  synth::PartitionedSynthesisOptions opts;
  opts.qsearch.max_nodes = 24;
  opts.qsearch.max_cnots = 4;
  opts.qsearch.optimizer.max_iterations = 60;
  const auto result = synth::resynthesize_partitioned(qc, opts);
  EXPECT_GT(result.dedupe_hits, 0u);
  EXPECT_LT(result.unique_blocks, result.unique_blocks + result.dedupe_hits);
  EXPECT_GT(result.blocks_resynthesized, 0u);
  ASSERT_EQ(result.blocks.size(), result.blocks_total);
  std::size_t deduped = 0;
  for (const auto& b : result.blocks) deduped += b.deduped ? 1 : 0;
  EXPECT_EQ(deduped, result.dedupe_hits);

  // Dedupe off: same circuit, same compression, more searches.
  synth::PartitionedSynthesisOptions no_dedupe = opts;
  no_dedupe.dedupe = false;
  const auto result2 = synth::resynthesize_partitioned(qc, no_dedupe);
  EXPECT_EQ(result2.dedupe_hits, 0u);
  EXPECT_EQ(result2.circuit.fingerprint(), result.circuit.fingerprint());
}

// ---- determinism -----------------------------------------------------------

TEST(Resynthesis, ParallelMatchesSerialBitIdentical) {
  algos::TfimModel model;
  model.num_qubits = 5;
  const QuantumCircuit circuit = model.circuit_up_to(6);

  synth::PartitionedSynthesisOptions base;
  base.qsearch.max_nodes = 8;
  base.qsearch.max_cnots = 3;
  base.qsearch.optimizer.max_iterations = 40;

  synth::clear_synth_cache();
  synth::PartitionedSynthesisOptions serial = base;
  serial.parallel_blocks = false;
  const auto reference = synth::resynthesize_partitioned(circuit, serial);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    common::ThreadPool pool(threads);
    synth::PartitionedSynthesisOptions par = base;
    par.parallel_blocks = true;
    par.pool = &pool;
    synth::clear_synth_cache();
    const auto result = synth::resynthesize_partitioned(circuit, par);
    EXPECT_EQ(result.circuit.fingerprint(), reference.circuit.fingerprint())
        << "thread count " << threads;
    EXPECT_EQ(result.cnots_after, reference.cnots_after);
    EXPECT_EQ(result.blocks_resynthesized, reference.blocks_resynthesized);
    EXPECT_EQ(result.unique_blocks, reference.unique_blocks);
    EXPECT_EQ(result.dedupe_hits, reference.dedupe_hits);
    EXPECT_DOUBLE_EQ(result.accumulated_hs, reference.accumulated_hs);
  }

  // And against a warm cache the output is still the same circuit.
  const auto warm = synth::resynthesize_partitioned(circuit, serial);
  EXPECT_EQ(warm.circuit.fingerprint(), reference.circuit.fingerprint());
  EXPECT_GT(warm.cache_hits, 0u);
}

TEST(Resynthesis, ExpiredDeadlinePassesThrough) {
  algos::TfimModel model;
  const QuantumCircuit circuit = model.circuit_up_to(3);
  synth::PartitionedSynthesisOptions opts;
  opts.deadline = common::Deadline::after_ms(0);
  const auto result = synth::resynthesize_partitioned(circuit, opts);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.blocks_resynthesized, 0u);
  EXPECT_EQ(result.cnots_after, result.cnots_before);
}

// ---- noise-weighted budgets ------------------------------------------------

noise::DeviceProperties two_tier_device() {
  noise::DeviceProperties dev;
  dev.name = "two-tier";
  dev.coupling = noise::CouplingMap::line(4);
  dev.t1.assign(4, 80000.0);
  dev.t2.assign(4, 80000.0);
  dev.sq_error.assign(4, 1e-4);
  dev.readout.assign(4, noise::ReadoutError{0.01, 0.01});
  dev.cx_error = {0.08, 0.01, 0.001};  // edge (0,1) noisy, (2,3) quiet
  dev.cx_duration.assign(3, 300.0);
  return dev;
}

TEST(Resynthesis, NoiseWeightedBudgetBeatsUniformWhereItCounts) {
  // Block A on the noisy edge needs ~0.022 HS to compress to zero CX; block
  // B on the quiet edge needs almost nothing. A uniform split of the 0.04
  // global budget starves A; the noise-weighted allocator funds it.
  QuantumCircuit qc(4);
  qc.cx(0, 1).rz(0.42, 1).cx(0, 1);
  qc.cx(2, 3).rz(0.10, 3).cx(2, 3);

  synth::PartitionedSynthesisOptions opts;
  opts.block_qubits = 2;
  opts.total_hs_budget = 0.04;
  opts.qsearch.max_nodes = 8;
  opts.qsearch.max_cnots = 2;

  const auto uniform = synth::resynthesize_partitioned(qc, opts);

  const noise::DeviceProperties dev = two_tier_device();
  synth::PartitionedSynthesisOptions weighted = opts;
  weighted.device = &dev;
  const auto result = synth::resynthesize_partitioned(qc, weighted);

  // Same global budget, never a worse CNOT count — and at equal savings the
  // accumulated HS cannot be worse either (the weighted split only moves
  // slack toward blocks that can spend it).
  EXPECT_LE(result.cnots_after, uniform.cnots_after);
  if (result.cnots_after == uniform.cnots_after) {
    EXPECT_LE(result.accumulated_hs, uniform.accumulated_hs + 1e-9);
  }
  EXPECT_LE(result.accumulated_hs, opts.total_hs_budget + 1e-9);
  EXPECT_NEAR(result.budget_total, opts.total_hs_budget, 1e-9);

  // The noisy-edge block got the lion's share of the budget.
  double noisy_budget = 0.0, quiet_budget = 0.0;
  for (const auto& b : result.blocks) {
    if (b.qubits == std::vector<int>{0, 1}) noisy_budget = b.budget;
    if (b.qubits == std::vector<int>{2, 3}) quiet_budget = b.budget;
  }
  EXPECT_GT(noisy_budget, quiet_budget);
}

TEST(Resynthesis, GlobalBudgetSplitsUniformlyWithoutDevice) {
  QuantumCircuit qc(4);
  qc.cx(0, 1).rz(0.3, 1).cx(0, 1);
  qc.cx(2, 3).rz(0.3, 3).cx(2, 3);
  synth::PartitionedSynthesisOptions opts;
  opts.block_qubits = 2;
  opts.total_hs_budget = 0.05;
  opts.qsearch.max_nodes = 6;
  const auto result = synth::resynthesize_partitioned(qc, opts);
  EXPECT_NEAR(result.budget_total, 0.05, 1e-9);
  std::vector<double> budgets;
  for (const auto& b : result.blocks)
    if (b.budget > 0.0) budgets.push_back(b.budget);
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_NEAR(budgets[0], budgets[1], 1e-12);
}

// ---- measurements and clamping --------------------------------------------

TEST(Resynthesis, MeasurementsSurviveTheRewrite) {
  QuantumCircuit qc(2);
  qc.cx(0, 1).rz(0.02, 1).cx(0, 1);
  qc.measure_all();
  synth::PartitionedSynthesisOptions opts;
  opts.qsearch.max_nodes = 6;
  const auto result = synth::resynthesize_partitioned(qc, opts);
  // measure_all appends one Measure gate spanning every qubit; the rewrite
  // must carry it through verbatim (the legacy path dropped it).
  ASSERT_EQ(result.circuit.count(GateKind::Measure), 1u);
  EXPECT_EQ(result.circuit.gates().back().qubits, (std::vector<int>{0, 1}));
}

TEST(Resynthesis, ClampsAbsurdBlockWidths) {
  QuantumCircuit qc(3);
  qc.cx(0, 1).cx(1, 2);
  synth::PartitionedSynthesisOptions opts;
  opts.block_qubits = 9;  // clamped to 4 with a warning, not honored
  opts.qsearch.max_nodes = 4;
  const auto result = synth::resynthesize_partitioned(qc, opts);
  for (const auto& b : result.blocks) EXPECT_LE(b.qubits.size(), 4u);
  EXPECT_EQ(result.blocks_total, result.blocks.size());
}

// ---- workflow integration --------------------------------------------------

TEST(Workflow, PartitionOnlyConfigSkipsWholeUnitary) {
  // 8 qubits: to_unitary() on the reference would be a 256x256 product over
  // hundreds of gates; the partition-only path never needs it.
  algos::TfimModel model;
  model.num_qubits = 8;
  model.dt = 0.05;
  const QuantumCircuit reference = model.circuit_up_to(3);

  approx::GeneratorConfig gen;
  gen.use_qsearch = false;
  gen.use_partition = true;
  gen.partition.qsearch.max_nodes = 24;
  gen.partition.qsearch.max_cnots = 4;
  gen.partition.qsearch.optimizer.max_iterations = 60;
  gen.hs_threshold = 1e9;

  approx::GenerationReport report;
  const auto circuits = approx::generate_from_reference(reference, gen, nullptr, &report);
  ASSERT_EQ(circuits.size(), 1u);
  EXPECT_EQ(circuits[0].source, "partition");
  EXPECT_GT(report.partition_blocks, 0u);
  EXPECT_GT(report.partition_blocks_resynthesized, 0u);
  EXPECT_GT(report.partition_dedupe_hits, 0u);
  EXPECT_EQ(report.partition_block_failures, 0u);
  EXPECT_FALSE(report.degraded());
  // The model circuit carries RZZ gates; compare CX counts after lowering.
  const std::size_t reference_cx =
      transpile::decompose_to_cx_u3(reference).unitary_part().count(GateKind::CX);
  EXPECT_LT(circuits[0].cnot_count, reference_cx);
}

}  // namespace
}  // namespace qc
