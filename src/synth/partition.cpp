#include "synth/partition.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"
#include "synth/qfactor.hpp"
#include "transpile/decompose.hpp"

namespace qc::synth {

using ir::Gate;
using ir::GateKind;
using ir::QuantumCircuit;

namespace {

constexpr std::size_t kNoProblem = std::numeric_limits<std::size_t>::max();

/// Builds the compact-relabelled Partition for a closed block. `gate_indices`
/// are source-circuit indices in ascending order.
Partition make_partition(const QuantumCircuit& circuit, const std::set<int>& support,
                         const std::vector<std::size_t>& gate_indices) {
  Partition p;
  p.qubits.assign(support.begin(), support.end());
  // gate_indices need not be sorted (the DAG partitioner splices deferred
  // 1q gates in commute-safe, not index, order).
  p.first_gate = *std::min_element(gate_indices.begin(), gate_indices.end());
  p.last_gate = *std::max_element(gate_indices.begin(), gate_indices.end());
  std::map<int, int> compact;
  for (std::size_t i = 0; i < p.qubits.size(); ++i)
    compact[p.qubits[i]] = static_cast<int>(i);
  QuantumCircuit sub(static_cast<int>(p.qubits.size()));
  for (std::size_t idx : gate_indices) {
    const Gate& g = circuit.gate(idx);
    std::vector<int> qs;
    qs.reserve(g.qubits.size());
    for (int q : g.qubits) qs.push_back(compact.at(q));
    sub.append(Gate(g.kind, std::move(qs), g.params));
  }
  p.sub_circuit = std::move(sub);
  return p;
}

}  // namespace

std::vector<Partition> partition_circuit_dag(const QuantumCircuit& circuit,
                                             int block_qubits) {
  QC_CHECK(block_qubits >= 2);

  // Invariant: every qubit is owned by at most one open block, and ownership
  // is released only when the block closes. Hence two concurrently-open
  // blocks never touch a common qubit, so they carry no mutual dependency,
  // and a qubit handed from block X to block Y proves X closed first —
  // emission at close time is a valid linearization of the block DAG.
  //
  // Unowned 1q gates are deferred into per-qubit pending buffers (they
  // commute past every open block, which by the invariant cannot touch their
  // qubit) and emitted as singleton passthrough blocks when the qubit is next
  // acquired. Without the deferral every 1q layer opens a wave of blocks
  // that de-phases block formation relative to the circuit's period and
  // ruins dedupe; folding the deferred gates *into* the acquiring block
  // would be worse still — it contaminates otherwise identical entangling
  // blocks with step-dependent rotations (e.g. a ramped Trotter field),
  // making every block a unique, denser, harder synthesis target.
  struct OpenBlock {
    std::set<int> support;
    std::vector<std::size_t> gate_indices;
    std::uint64_t opened_at = 0;
  };

  std::vector<Partition> out;
  std::vector<std::unique_ptr<OpenBlock>> live;  // in opening order
  std::vector<OpenBlock*> owner(static_cast<std::size_t>(circuit.num_qubits()),
                                nullptr);
  std::vector<std::vector<std::size_t>> pending(
      static_cast<std::size_t>(circuit.num_qubits()));
  std::uint64_t open_counter = 0;

  auto close = [&](OpenBlock* b) {
    out.push_back(make_partition(circuit, b->support, b->gate_indices));
    for (int q : b->support) owner[static_cast<std::size_t>(q)] = nullptr;
    live.erase(std::find_if(live.begin(), live.end(),
                            [&](const auto& p) { return p.get() == b; }));
  };
  auto close_all = [&] {
    while (!live.empty()) close(live.front().get());
    for (std::size_t q = 0; q < pending.size(); ++q) {
      if (pending[q].empty()) continue;
      out.push_back(make_partition(circuit, {static_cast<int>(q)}, pending[q]));
      pending[q].clear();
    }
  };
  // Grows `b` by gate i; each newly acquired qubit first flushes its
  // deferred 1q gates as a singleton block (every gate of `b` so far is
  // disjoint from that qubit, so emitting them ahead of `b` is order-safe).
  auto absorb = [&](OpenBlock* b, const Gate& g, std::size_t i) {
    for (int q : g.qubits) {
      if (owner[static_cast<std::size_t>(q)] == b) continue;
      auto& defer = pending[static_cast<std::size_t>(q)];
      if (!defer.empty()) {
        out.push_back(make_partition(circuit, {q}, defer));
        defer.clear();
      }
      b->support.insert(q);
      owner[static_cast<std::size_t>(q)] = b;
    }
    b->gate_indices.push_back(i);
  };
  auto open_block = [&](const Gate& g, std::size_t i) {
    auto b = std::make_unique<OpenBlock>();
    b->opened_at = open_counter++;
    OpenBlock* raw = b.get();
    live.push_back(std::move(b));
    absorb(raw, g, i);
  };

  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.gate(i);
    QC_CHECK_MSG(g.kind != GateKind::Measure,
                 "partition_circuit_dag expects the unitary part of a circuit");
    if (g.kind == GateKind::Barrier) {
      close_all();
      continue;
    }
    QC_CHECK_MSG(static_cast<int>(g.qubits.size()) <= block_qubits,
                 "gate wider than the partition block size");

    // Open blocks owning a qubit of g, in opening order (live is ordered).
    std::vector<OpenBlock*> owners;
    for (const auto& b : live) {
      for (int q : g.qubits) {
        if (owner[static_cast<std::size_t>(q)] == b.get()) {
          owners.push_back(b.get());
          break;
        }
      }
    }

    if (owners.empty()) {
      if (g.qubits.size() == 1) {
        pending[static_cast<std::size_t>(g.qubits[0])].push_back(i);
      } else {
        open_block(g, i);
      }
      continue;
    }

    if (owners.size() == 1) {
      OpenBlock* b = owners.front();
      std::set<int> grown = b->support;
      grown.insert(g.qubits.begin(), g.qubits.end());
      if (static_cast<int>(grown.size()) <= block_qubits) {
        absorb(b, g, i);
      } else {
        close(b);
        open_block(g, i);
      }
      continue;
    }

    // The gate straddles blocks. Keep the owner that can absorb it once the
    // others close (preferring the one already containing most of the gate's
    // qubits; ties break toward the most recently opened, which keeps block
    // formation phase-locked on periodic circuits); every other owner's
    // gates all precede g, so closing them now keeps the emission order a
    // valid linearization.
    OpenBlock* keep = nullptr;
    std::size_t keep_overlap = 0;
    for (OpenBlock* b : owners) {
      std::set<int> grown = b->support;
      grown.insert(g.qubits.begin(), g.qubits.end());
      if (static_cast<int>(grown.size()) > block_qubits) continue;
      std::size_t overlap = 0;
      for (int q : g.qubits)
        if (b->support.contains(q)) ++overlap;
      if (keep == nullptr || overlap > keep_overlap ||
          (overlap == keep_overlap && b->opened_at > keep->opened_at)) {
        keep = b;
        keep_overlap = overlap;
      }
    }
    for (OpenBlock* b : owners)
      if (b != keep) close(b);
    if (keep != nullptr) {
      absorb(keep, g, i);
    } else {
      open_block(g, i);
    }
  }
  close_all();
  return out;
}

namespace {

/// One deduped synthesis problem: the canonical block plus the slots the
/// parallel fan-out fills. Each worker writes only its own problem, so the
/// schedule is bit-identical for any thread count.
struct SynthProblem {
  linalg::Matrix target;
  int num_qubits = 0;
  std::size_t sub_cx = 0;
  ApproxCircuit found;     // null circuit when nothing usable came back
  bool failed = false;     // search threw (fault injection, synthesis error)
  bool skipped = false;    // deadline expired before the search started
  bool timed_out = false;  // search itself hit the deadline
  std::string error;
};

/// Calibration noise weight of one block: the summed device error rates of
/// its gates (circuit qubit i = device qubit i; gates falling outside the
/// device or off its coupling map weigh in at the device averages). More
/// noise -> more of the global budget.
double block_noise_weight(const Partition& p, const noise::DeviceProperties& dev,
                          double avg_sq_error) {
  const int dev_qubits = dev.num_qubits();
  double w = 0.0;
  for (const Gate& g : p.sub_circuit.gates()) {
    if (g.qubits.size() == 2) {
      const int a = p.qubits[static_cast<std::size_t>(g.qubits[0])];
      const int b = p.qubits[static_cast<std::size_t>(g.qubits[1])];
      const bool on_device = a < dev_qubits && b < dev_qubits &&
                             dev.coupling.are_coupled(a, b);
      w += on_device ? dev.cx_error_for(a, b) : dev.average_cx_error();
    } else if (g.qubits.size() == 1) {
      const int a = p.qubits[static_cast<std::size_t>(g.qubits[0])];
      w += a < dev_qubits ? dev.sq_error[static_cast<std::size_t>(a)]
                          : avg_sq_error;
    }
  }
  return w;
}

}  // namespace

PartitionedSynthesisResult resynthesize_partitioned(
    const QuantumCircuit& circuit, const PartitionedSynthesisOptions& options) {
  static obs::Histogram& partition_ns = obs::histogram("synth.partition_ns");
  obs::Span span("synth.partition", &partition_ns);

  int block_qubits = options.block_qubits;
  if (block_qubits < 2 || block_qubits > 4) {
    const int clamped = std::clamp(block_qubits, 2, 4);
    QC_LOG_WARN("synth", "block_qubits=%d outside [2, 4]; clamping to %d",
                block_qubits, clamped);
    block_qubits = clamped;
  }

  const QuantumCircuit lowered = transpile::decompose_to_cx_u3(circuit);
  const QuantumCircuit basis = lowered.unitary_part();
  const std::vector<Partition> partitions =
      partition_circuit_dag(basis, block_qubits);

  const SynthCacheStats cache_before = synth_cache_stats();

  PartitionedSynthesisResult result;
  result.blocks_total = partitions.size();
  result.cnots_before = basis.count(GateKind::CX);
  result.blocks.resize(partitions.size());

  // ---- canonicalize + dedupe: block instance -> unique synthesis problem.
  // Each block's unitary is computed exactly once here and threaded through
  // search, polish, and the acceptance check.
  std::vector<std::size_t> block_problem(partitions.size(), kNoProblem);
  std::vector<SynthProblem> problems;
  std::map<BlockKey, std::size_t> canonical;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const QuantumCircuit& sub = partitions[i].sub_circuit;
    PartitionBlockStat& stat = result.blocks[i];
    stat.qubits = partitions[i].qubits;
    stat.gates = sub.size();
    stat.cx_before = sub.count(GateKind::CX);
    stat.cx_after = stat.cx_before;
    const std::size_t sub_cx = stat.cx_before;
    const int eff_max_cnots =
        std::min<int>(options.qsearch.max_cnots, static_cast<int>(sub_cx) - 1);
    if (sub.num_qubits() < 2 || sub_cx < 2 || eff_max_cnots < 0) continue;

    linalg::Matrix unitary = sub.to_unitary();
    BlockKey key;
    key.unitary_fp = unitary.fingerprint();
    key.circuit_fp = sub.fingerprint();
    key.dim = unitary.rows();
    key.num_qubits = sub.num_qubits();
    key.gate_count = sub.size();
    key.cx_count = sub_cx;
    key.max_cnots = eff_max_cnots;
    if (options.dedupe) {
      const auto [it, inserted] = canonical.try_emplace(key, problems.size());
      if (!inserted) {
        block_problem[i] = it->second;
        stat.deduped = true;
        ++result.dedupe_hits;
        continue;
      }
    }
    block_problem[i] = problems.size();
    SynthProblem problem;
    problem.target = std::move(unitary);
    problem.num_qubits = sub.num_qubits();
    problem.sub_cx = sub_cx;
    problems.push_back(std::move(problem));
  }
  result.unique_blocks = problems.size();

  // ---- budget allocation across eligible block instances.
  std::vector<double> budget(partitions.size(), 0.0);
  if (options.total_hs_budget > 0.0) {
    std::vector<double> weight(partitions.size(), 0.0);
    double weight_sum = 0.0;
    double avg_sq_error = 0.0;
    if (options.device != nullptr && !options.device->sq_error.empty()) {
      for (double e : options.device->sq_error) avg_sq_error += e;
      avg_sq_error /= static_cast<double>(options.device->sq_error.size());
    }
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      if (block_problem[i] == kNoProblem) continue;
      weight[i] = options.device != nullptr
                      ? block_noise_weight(partitions[i], *options.device,
                                           avg_sq_error)
                      : 1.0;
      weight_sum += weight[i];
    }
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      if (block_problem[i] == kNoProblem) continue;
      // A zero weight sum (noise-free calibration) degrades to uniform.
      budget[i] = weight_sum > 0.0
                      ? options.total_hs_budget * weight[i] / weight_sum
                      : options.total_hs_budget /
                            static_cast<double>(result.unique_blocks +
                                                result.dedupe_hits);
      result.blocks[i].noise_weight = weight[i];
    }
  } else {
    for (std::size_t i = 0; i < partitions.size(); ++i)
      if (block_problem[i] != kNoProblem) budget[i] = options.block_hs_budget;
  }
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    result.blocks[i].budget = budget[i];
    result.budget_total += budget[i];
  }

  // ---- synthesize unique problems (parallel fan-out through the synthesis
  // cache). The searches are independent and deterministic, so the parallel
  // schedule is bit-identical to the serial one (with an unbounded deadline;
  // a bounded deadline makes any schedule time-dependent, exactly like the
  // engine's partial results).
  QSearchOptions qbase = options.qsearch;
  qbase.success_threshold = std::max(qbase.success_threshold, 1e-8);
  if (!qbase.deadline.bounded()) qbase.deadline = options.deadline;
  auto synth_one = [&](std::size_t pi) {
    SynthProblem& problem = problems[pi];
    if (options.deadline.expired()) {
      problem.skipped = true;
      return;
    }
    try {
      QSearchOptions qopts = qbase;
      qopts.max_cnots = std::min<int>(qbase.max_cnots,
                                      static_cast<int>(problem.sub_cx) - 1);
      QSearchResult found =
          qsearch_synthesize(problem.target, problem.num_qubits, qopts);
      if (found.timed_out) problem.timed_out = true;
      if (!found.best.circuit.is_null()) {
        QFactorOptions fopts;
        fopts.deadline = qopts.deadline;
        QFactorResult polished =
            qfactor_optimize(found.best.circuit, problem.target, fopts);
        if (polished.timed_out) problem.timed_out = true;
        if (polished.hs_distance < found.best.hs_distance) {
          found.best.circuit = std::move(polished.circuit);
          found.best.hs_distance = polished.hs_distance;
        }
      }
      problem.found = std::move(found.best);
    } catch (const common::Error& e) {
      // A failed search never fails the call: its instances pass through
      // unchanged (never a regression), the failure is surfaced in stats.
      problem.failed = true;
      problem.error = e.what();
    }
  };
  if (options.parallel_blocks && problems.size() > 1) {
    common::ThreadPool& pool =
        options.pool != nullptr ? *options.pool : common::ThreadPool::global();
    pool.parallel_for(0, problems.size(),
                      [&](std::size_t pi) { synth_one(pi); });
  } else {
    common::StopPoller poller(options.deadline, 1);
    for (std::size_t pi = 0; pi < problems.size(); ++pi) {
      if (poller.should_stop()) {
        problems[pi].skipped = true;
        continue;
      }
      synth_one(pi);
    }
  }
  for (const SynthProblem& problem : problems) {
    if (problem.failed) {
      ++result.block_failures;
      QC_LOG_WARN("synth", "partition block synthesis failed (%s); keeping the block",
                  problem.error.c_str());
    }
    if (problem.skipped || problem.timed_out) result.timed_out = true;
  }

  // ---- serial assembly in block order (deterministic).
  QuantumCircuit rebuilt(basis.num_qubits(), basis.name());
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const Partition& p = partitions[i];
    PartitionBlockStat& stat = result.blocks[i];
    bool replaced = false;
    if (block_problem[i] != kNoProblem) {
      const SynthProblem& problem = problems[block_problem[i]];
      const ApproxCircuit& best = problem.found;
      const bool acceptable = !problem.skipped && !problem.failed &&
                              !best.circuit.is_null() &&
                              best.hs_distance <= budget[i] &&
                              best.cnot_count < problem.sub_cx;
      if (acceptable) {
        rebuilt.append_mapped(best.circuit, p.qubits);
        result.accumulated_hs += best.hs_distance;
        ++result.blocks_resynthesized;
        stat.resynthesized = true;
        stat.hs_spent = best.hs_distance;
        stat.cx_after = best.cnot_count;
        replaced = true;
      }
    }
    if (!replaced) rebuilt.append_mapped(p.sub_circuit, p.qubits);
  }
  // Measurements survive the rewrite (the old path silently dropped them).
  for (const Gate& g : lowered.gates())
    if (g.kind == GateKind::Measure) rebuilt.append(g);

  result.cnots_after = rebuilt.count(GateKind::CX);
  result.circuit = std::move(rebuilt);

  const SynthCacheStats cache_after = synth_cache_stats();
  result.cache_hits = cache_after.hits - cache_before.hits;
  result.cache_misses = cache_after.misses - cache_before.misses;

  static obs::Counter& c_calls = obs::counter("synth.partition.calls");
  static obs::Counter& c_blocks = obs::counter("synth.partition.blocks_total");
  static obs::Counter& c_resynth =
      obs::counter("synth.partition.blocks_resynthesized");
  static obs::Counter& c_dedupe = obs::counter("synth.partition.dedupe_hits");
  static obs::Counter& c_unique = obs::counter("synth.partition.unique_blocks");
  static obs::Counter& c_cache_hits = obs::counter("synth.partition.cache_hits");
  static obs::Counter& c_cache_misses =
      obs::counter("synth.partition.cache_misses");
  static obs::Counter& c_failures = obs::counter("synth.partition.block_failures");
  c_calls.add(1);
  c_blocks.add(result.blocks_total);
  c_resynth.add(result.blocks_resynthesized);
  c_dedupe.add(result.dedupe_hits);
  c_unique.add(result.unique_blocks);
  c_cache_hits.add(result.cache_hits);
  c_cache_misses.add(result.cache_misses);
  c_failures.add(result.block_failures);
  if (span.active()) {
    span.arg("blocks", result.blocks_total);
    span.arg("unique", result.unique_blocks);
    span.arg("dedupe_hits", result.dedupe_hits);
    span.arg("resynthesized", result.blocks_resynthesized);
    span.arg("cnots_before", result.cnots_before);
    span.arg("cnots_after", result.cnots_after);
  }
  return result;
}

}  // namespace qc::synth
