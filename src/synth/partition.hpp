// Partitioned (re)synthesis — the paper's §6.5 scaling proposal ("it may be
// possible to create a large circuit out of many small circuits"), built out
// QEst-style (arXiv:2108.12714) into a pipeline that reaches widths and
// depths whole-unitary search cannot touch:
//
//   1. A DAG-aware sliding-window partitioner keeps several blocks open at
//      once and grows each along the circuit's dependency structure, so
//      gates on disjoint qubits no longer cut each other's blocks.
//   2. Each block is canonicalized — compact qubit relabeling plus a
//      unitary/structure fingerprint with exact shape discriminators — so
//      the recurring blocks of a Trotterized circuit collapse to one
//      synthesis problem *before* the process-wide synthesis cache is even
//      consulted (intra-call dedupe).
//   3. The global HS budget is split across blocks either uniformly
//      (eps / num_blocks, the old behaviour) or weighted by device
//      calibration noise (noise/catalog.hpp): blocks whose gates sit on
//      noisy edges get more budget, spending approximation error exactly
//      where the device loses fidelity anyway.
//   4. Unique synthesis problems fan out over the thread pool and route
//      through the PR 5 synthesis cache; results are bit-identical to the
//      serial schedule at any QAPPROX_THREADS (each problem is independent
//      and deterministic, and assembly is serial in block order).
//
// Because HS distance is sub-additive under composition (the triangle
// inequality on the global phase-invariant metric holds up to small cross
// terms), the sum of accepted per-block distances upper-bounds the
// whole-circuit drift, so a global budget split across blocks keeps the
// whole-circuit distance near eps while the CNOT count drops block by block.
#pragma once

#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "ir/circuit.hpp"
#include "noise/device.hpp"
#include "synth/qsearch.hpp"

namespace qc::synth {

/// One block of the partition.
struct Partition {
  std::vector<int> qubits;          // sorted circuit qubits the block touches
  ir::QuantumCircuit sub_circuit;   // over compact indices 0..qubits.size()-1
  std::size_t first_gate = 0;       // gate range in the source circuit
  std::size_t last_gate = 0;        // inclusive
};

/// DAG-aware sliding-window partitioning. Any number of blocks stay open
/// concurrently, each qubit is owned by at most one open block, and a gate
/// lands in the open block that already owns its qubits (closing conflicting
/// owners only when the union would overflow). Blocks are emitted in close
/// order, which is a linearization of the block dependency DAG, so
/// reassembling the blocks in order reproduces the circuit's unitary exactly
/// (gates only commute across blocks when they share no qubits). Barriers
/// close every open block; Measure gates throw (partition the unitary_part);
/// every unitary gate lands in exactly one block.
std::vector<Partition> partition_circuit_dag(const ir::QuantumCircuit& circuit,
                                             int block_qubits);

/// Canonical identity of one block's synthesis problem: the content hashes
/// are paired with exact shape discriminators (dimensions and gate counts),
/// mirroring the engine-cache key fix — a 64-bit fingerprint collision alone
/// cannot alias two different problems. Two block instances with equal keys
/// are the same synthesis problem and share one search.
struct BlockKey {
  std::uint64_t unitary_fp = 0;   // block-unitary content hash
  std::uint64_t circuit_fp = 0;   // compact sub-circuit content hash
  std::uint64_t dim = 0;          // exact discriminators alongside the hashes
  int num_qubits = 0;
  std::size_t gate_count = 0;
  std::size_t cx_count = 0;
  int max_cnots = 0;              // effective per-block search cap
  auto operator<=>(const BlockKey&) const = default;
};

struct PartitionedSynthesisOptions {
  /// Block width cap. Values outside [2, 4] are clamped with a warning
  /// (QSearch above 4 qubits is no longer "small blocks").
  int block_qubits = 3;
  /// Flat per-block HS budget, used when total_hs_budget == 0 (the original
  /// uniform interface).
  double block_hs_budget = 0.05;
  /// Global HS budget. When > 0 it replaces block_hs_budget: the budget is
  /// split across the resynthesis-eligible blocks — uniformly when `device`
  /// is null, else proportional to each block's calibration noise weight
  /// (sum of per-gate device error rates, so noisy blocks get more budget).
  double total_hs_budget = 0.0;
  /// Device calibration for the noise-weighted allocator. Circuit qubit i is
  /// taken as device qubit i; gates on uncoupled/out-of-range pairs weigh in
  /// at the device's average CX error.
  const noise::DeviceProperties* device = nullptr;
  /// Collapse canonically-identical blocks to one synthesis problem within
  /// this call (recurring Trotter blocks never reach the cache twice).
  bool dedupe = true;
  /// Fan unique synthesis problems out over the thread pool. Bit-identical
  /// to the serial schedule at any thread count.
  bool parallel_blocks = true;
  /// Pool for parallel_blocks; null means ThreadPool::global().
  common::ThreadPool* pool = nullptr;
  /// Polled before every block synthesis (StopPoller) and inside each
  /// search; on expiry the remaining blocks pass through unchanged and the
  /// result is flagged `timed_out`.
  common::Deadline deadline;
  /// Each block's search; every block it finds is then polished with
  /// QFactor sweeps.
  QSearchOptions qsearch;
};

/// Per-block accounting (satellite of the partition stats surface).
struct PartitionBlockStat {
  std::vector<int> qubits;        // circuit qubits of the block
  std::size_t gates = 0;
  std::size_t cx_before = 0;
  std::size_t cx_after = 0;
  double budget = 0.0;            // allocated HS budget (0 for passthrough)
  double hs_spent = 0.0;          // accepted block's HS distance
  double noise_weight = 0.0;      // calibration weight used by the allocator
  bool resynthesized = false;     // replaced by a synthesized circuit
  bool deduped = false;           // shared an earlier block's search
};

struct PartitionedSynthesisResult {
  ir::QuantumCircuit circuit;
  std::size_t blocks_total = 0;
  std::size_t blocks_resynthesized = 0;
  /// Synthesis problems actually searched after intra-call dedupe.
  std::size_t unique_blocks = 0;
  /// Blocks served by another block's search within this call.
  std::size_t dedupe_hits = 0;
  /// Per-block searches that threw (fault injection, synthesis errors);
  /// failed blocks pass through unchanged, the call never fails.
  std::size_t block_failures = 0;
  /// Process-wide synthesis-cache traffic during this call (delta of
  /// synth_cache_stats totals, so concurrent callers may interleave).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cnots_before = 0;
  std::size_t cnots_after = 0;
  /// Sum of accepted per-block HS distances (upper-bounds the whole-circuit
  /// drift up to cross terms).
  double accumulated_hs = 0.0;
  /// Sum of allocated per-block budgets (== total_hs_budget when set).
  double budget_total = 0.0;
  /// Deadline expired; trailing blocks passed through unchanged.
  bool timed_out = false;
  std::vector<PartitionBlockStat> blocks;
};

/// Rewrites `circuit` block by block. Deterministic for any thread count and
/// cache state. Measure gates are carried over verbatim after the rewritten
/// unitary part (the old path silently dropped them); barriers partition the
/// circuit but do not survive into the output.
PartitionedSynthesisResult resynthesize_partitioned(
    const ir::QuantumCircuit& circuit, const PartitionedSynthesisOptions& options = {});

}  // namespace qc::synth
