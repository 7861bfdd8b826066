#include "approx/workflow.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"
#include "transpile/decompose.hpp"

namespace qc::approx {

using synth::ApproxCircuit;

namespace {

/// Runs one synthesis tool; on SynthesisError applies `reduce_budget` (which
/// also bumps the tool's seed, so seed-keyed injected faults can clear) and
/// tries once more. A second failure is recorded and swallowed — the caller
/// continues with whatever the other tools harvested.
void run_with_retry(const char* tool, const std::function<void()>& attempt,
                    const std::function<void()>& reduce_budget,
                    GenerationReport& report) {
  ++report.attempts;
  try {
    attempt();
    return;
  } catch (const common::Error& e) {
    ++report.failures;
    report.errors.push_back(std::string(tool) + ": " + e.what());
    QC_LOG_WARN("approx", "%s failed (%s); retrying with reduced budget", tool,
                e.what());
    static obs::Counter& failed = obs::counter("approx.generator_failures");
    failed.add(1);
  }
  reduce_budget();
  ++report.attempts;
  ++report.retries;
  try {
    attempt();
  } catch (const common::Error& e) {
    ++report.failures;
    report.errors.push_back(std::string(tool) + " (retry): " + e.what());
    QC_LOG_WARN("approx", "%s failed twice; dropping it for this target (%s)",
                tool, e.what());
    static obs::Counter& dropped = obs::counter("approx.generators_dropped");
    dropped.add(1);
  }
}

/// Budget shrink used for retries: halve the expensive knobs, keep at least
/// one unit of work, and move the seed off the faulted stream.
constexpr std::uint64_t kRetrySeedBump = 0x5245;  // "RE"

}  // namespace

std::vector<ApproxCircuit> select_candidates(std::vector<ApproxCircuit> harvest,
                                             double hs_threshold,
                                             std::size_t max_circuits) {
  const double threshold = std::max(hs_threshold, 0.1);  // the paper's floor
  std::vector<ApproxCircuit> kept;
  kept.reserve(harvest.size());
  for (auto& c : harvest)
    if (c.hs_distance <= threshold) kept.push_back(std::move(c));

  // Near-duplicate removal: same CNOT count and HS within 1e-6 adds nothing
  // to the study.
  std::sort(kept.begin(), kept.end(), [](const ApproxCircuit& a, const ApproxCircuit& b) {
    if (a.cnot_count != b.cnot_count) return a.cnot_count < b.cnot_count;
    return a.hs_distance < b.hs_distance;
  });
  std::vector<ApproxCircuit> dedup;
  for (auto& c : kept) {
    if (!dedup.empty() && dedup.back().cnot_count == c.cnot_count &&
        std::abs(dedup.back().hs_distance - c.hs_distance) < 1e-6)
      continue;
    dedup.push_back(std::move(c));
  }

  if (dedup.size() <= max_circuits) return dedup;

  // Keep the per-depth champions first, then backfill by ascending HS.
  std::map<std::size_t, std::size_t> champion;  // cnot count -> index
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    const auto it = champion.find(dedup[i].cnot_count);
    if (it == champion.end() || dedup[i].hs_distance < dedup[it->second].hs_distance)
      champion[dedup[i].cnot_count] = i;
  }
  std::vector<bool> selected(dedup.size(), false);
  std::size_t count = 0;
  for (const auto& [depth, idx] : champion) {
    if (count >= max_circuits) break;
    selected[idx] = true;
    ++count;
  }
  std::vector<std::size_t> by_hs(dedup.size());
  for (std::size_t i = 0; i < by_hs.size(); ++i) by_hs[i] = i;
  std::sort(by_hs.begin(), by_hs.end(), [&](std::size_t a, std::size_t b) {
    return dedup[a].hs_distance < dedup[b].hs_distance;
  });
  for (std::size_t i : by_hs) {
    if (count >= max_circuits) break;
    if (!selected[i]) {
      selected[i] = true;
      ++count;
    }
  }
  std::vector<ApproxCircuit> out;
  out.reserve(count);
  for (std::size_t i = 0; i < dedup.size(); ++i)
    if (selected[i]) out.push_back(std::move(dedup[i]));
  return out;
}

namespace {

/// Harvest pass over the enabled tools: QSearch and QFast search against
/// `target` (the reference's unitary), partition and reducer rewrite the
/// reference itself.
std::vector<ApproxCircuit> harvest_tools(const linalg::Matrix& target,
                                         const GeneratorConfig& config,
                                         const noise::CouplingMap* coupling,
                                         const ir::QuantumCircuit& reference,
                                         GenerationReport& report) {
  const int num_qubits = reference.num_qubits();
  std::vector<ApproxCircuit> harvest;
  auto collect = [&harvest](const ApproxCircuit& c) { harvest.push_back(c); };
  const common::Deadline fallback_deadline =
      config.deadline.bounded() ? config.deadline : common::Deadline::from_env();
  const synth::SynthCacheStats cache_before = synth::synth_cache_stats();

  if (config.use_qsearch) {
    synth::QSearchOptions opts = config.qsearch;
    opts.intermediate_callback = collect;
    if (!opts.deadline.bounded()) opts.deadline = fallback_deadline;
    run_with_retry(
        "qsearch",
        [&] {
          if (synth::qsearch_synthesize(target, num_qubits, opts, coupling).timed_out)
            report.timed_out = true;
        },
        [&] {
          opts.seed += kRetrySeedBump;
          opts.max_nodes = std::max(1, opts.max_nodes / 2);
          opts.restarts_per_node = std::max(1, opts.restarts_per_node / 2);
          opts.optimizer.max_iterations = std::max(1, opts.optimizer.max_iterations / 2);
        },
        report);
  }
  if (config.use_qfast) {
    synth::QFastOptions opts = config.qfast;
    opts.partial_solution_callback = collect;
    if (!opts.deadline.bounded()) opts.deadline = fallback_deadline;
    run_with_retry(
        "qfast",
        [&] {
          if (synth::qfast_synthesize(target, num_qubits, opts, coupling).timed_out)
            report.timed_out = true;
        },
        [&] {
          opts.seed += kRetrySeedBump;
          opts.max_blocks = std::max(1, opts.max_blocks / 2);
          opts.restarts_per_depth = std::max(1, opts.restarts_per_depth / 2);
          opts.optimizer.max_iterations = std::max(1, opts.optimizer.max_iterations / 2);
        },
        report);
  }
  if (config.use_partition) {
    synth::PartitionedSynthesisOptions opts = config.partition;
    if (!opts.deadline.bounded()) opts.deadline = fallback_deadline;
    run_with_retry(
        "partition",
        [&] {
          synth::PartitionedSynthesisResult res =
              synth::resynthesize_partitioned(reference, opts);
          if (res.timed_out) report.timed_out = true;
          report.partition_blocks = res.blocks_total;
          report.partition_blocks_resynthesized = res.blocks_resynthesized;
          report.partition_unique_blocks = res.unique_blocks;
          report.partition_dedupe_hits = res.dedupe_hits;
          report.partition_block_failures = res.block_failures;
          ApproxCircuit c;
          c.circuit = std::move(res.circuit);
          c.hs_distance = res.accumulated_hs;  // per-block sum (upper bound)
          c.cnot_count = res.cnots_after;
          c.source = "partition";
          harvest.push_back(std::move(c));
        },
        [&] {
          opts.qsearch.seed += kRetrySeedBump;
          opts.qsearch.max_nodes = std::max(1, opts.qsearch.max_nodes / 2);
          opts.qsearch.restarts_per_node =
              std::max(1, opts.qsearch.restarts_per_node / 2);
          opts.qsearch.optimizer.max_iterations =
              std::max(1, opts.qsearch.optimizer.max_iterations / 2);
        },
        report);
  }
  if (config.use_reducer) {
    synth::ReducerOptions opts = config.reducer;
    opts.callback = {};
    if (!opts.deadline.bounded()) opts.deadline = fallback_deadline;
    run_with_retry(
        "reducer",
        [&] {
          bool timed_out = false;
          for (auto& c : synth::reduce_circuit(reference, opts, &timed_out))
            harvest.push_back(std::move(c));
          if (timed_out) report.timed_out = true;
        },
        [&] {
          opts.seed += kRetrySeedBump;
          opts.variants_per_size = std::max(1, opts.variants_per_size / 2);
          opts.optimizer.max_iterations = std::max(1, opts.optimizer.max_iterations / 2);
        },
        report);
  }
  const synth::SynthCacheStats cache_after = synth::synth_cache_stats();
  report.synth_cache_hits = cache_after.hits - cache_before.hits;
  report.synth_cache_misses = cache_after.misses - cache_before.misses;
  return harvest;
}

}  // namespace

std::vector<ApproxCircuit> generate_from_reference(const ir::QuantumCircuit& reference,
                                                   const GeneratorConfig& config,
                                                   const noise::CouplingMap* coupling,
                                                   GenerationReport* report) {
  GenerationReport local;
  GenerationReport& rep = report != nullptr ? *report : local;
  rep = GenerationReport{};
  // The whole-circuit unitary is exponential in width; only the tools that
  // search against it force its computation here. A partition-only config
  // therefore scales to widths where to_unitary() on the reference is
  // already intractable (the reducer computes its own target internally, so
  // it offers no such escape).
  const bool needs_target = config.use_qsearch || config.use_qfast;
  const linalg::Matrix target =
      needs_target ? reference.unitary_part().to_unitary() : linalg::Matrix();
  std::vector<ApproxCircuit> harvest =
      harvest_tools(target, config, coupling, reference, rep);
  std::vector<ApproxCircuit> selected = select_candidates(
      std::move(harvest), config.hs_threshold, config.max_circuits);

  if (selected.empty()) {
    // Graceful degradation: the study must always have something to execute,
    // and the reference is by definition an exact (HS = 0) stand-in.
    ApproxCircuit fallback;
    fallback.circuit = transpile::decompose_to_cx_u3(reference).unitary_part();
    fallback.hs_distance = 0.0;
    fallback.cnot_count = fallback.circuit.count(ir::GateKind::CX);
    fallback.source = "reference-fallback";
    selected.push_back(std::move(fallback));
    rep.fell_back = true;
    QC_LOG_WARN("approx",
                "harvest for '%s' came up empty; substituting the exact reference",
                reference.name().c_str());
    static obs::Counter& fellback = obs::counter("approx.reference_fallbacks");
    fellback.add(1);
  }
  return selected;
}

GeneratorConfig grover_generator_preset(bool fast) {
  GeneratorConfig gen;
  gen.use_qsearch = true;
  gen.qsearch.max_cnots = 7;
  gen.qsearch.max_nodes = fast ? 10 : 40;
  gen.qsearch.optimizer.max_iterations = 80;
  gen.use_reducer = true;  // deep tail toward the 24-CX reference
  gen.reducer.keep_fractions = {0.25, 0.4, 0.55, 0.7, 0.85, 1.0};
  gen.reducer.variants_per_size = fast ? 1 : 3;
  gen.reducer.optimizer.max_iterations = 60;
  gen.hs_threshold = 0.7;
  gen.max_circuits = fast ? 30 : 120;
  return gen;
}

GeneratorConfig toffoli_generator_preset(int num_qubits, bool fast) {
  GeneratorConfig gen;
  // QSearch contributes the high-quality shallow end at 4 qubits; it does
  // not scale to 5 (the paper hit the same wall).
  gen.use_qsearch = num_qubits <= 4 && !fast;
  gen.qsearch.max_cnots = 8;
  gen.qsearch.max_nodes = 30;
  gen.qsearch.optimizer.max_iterations = 80;
  gen.use_qfast = true;
  gen.qfast.max_blocks = fast ? 3 : (num_qubits >= 5 ? 6 : 10);
  gen.qfast.optimizer.max_iterations = fast ? 15 : (num_qubits >= 5 ? 40 : 70);
  gen.qfast.restarts_per_depth = fast ? 1 : 2;
  gen.use_reducer = true;
  gen.reducer.keep_fractions = {0.05, 0.12, 0.2, 0.3, 0.4, 0.5,
                                0.6,  0.7,  0.8, 0.9, 0.95, 1.0};
  gen.reducer.variants_per_size = fast ? 1 : 3;
  gen.reducer.optimizer.max_iterations = fast ? 25 : 50;
  gen.reducer.full_reopt_max_qubits = 0;  // boundary mode throughout (depth)
  gen.hs_threshold = 1.0;  // JS figures show the full quality range
  gen.max_circuits = fast ? 25 : 90;
  return gen;
}

}  // namespace qc::approx
