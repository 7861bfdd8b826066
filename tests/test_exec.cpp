// ExecutionEngine: cache correctness, run records, and deterministic
// parallel trajectory execution.
#include <gtest/gtest.h>

#include "algos/grover.hpp"
#include "algos/tfim.hpp"
#include "exec/engine.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"
#include "synth/qsearch.hpp"
#include "approx/experiment.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/routing.hpp"

namespace qc {
namespace {

exec::ExecutionConfig simulator_config() {
  return exec::ExecutionConfig::simulator(noise::device_by_name("ourense"));
}

exec::ExecutionConfig trajectory_config() {
  exec::ExecutionConfig cfg = simulator_config();
  cfg.use_trajectories = true;
  cfg.shots = 2048;
  cfg.seed = 17;
  return cfg;
}

ir::QuantumCircuit small_circuit() { return algos::grover_circuit(3, 0b101); }

TEST(ExecutionEngineTest, RunBatchIsIdenticalForOneAndEightThreads) {
  // The acceptance bar for the parallel trajectory path: bit-identical
  // distributions regardless of thread count, because every shot draws from
  // its own counter-derived stream, whatever tree it is evolved in.
  const auto circuit = small_circuit();
  const auto cfg = trajectory_config();
  std::vector<exec::RunRequest> requests;
  for (int i = 0; i < 4; ++i) {
    exec::RunRequest req{circuit, cfg};
    req.config.seed = cfg.seed + 31 * i;
    requests.push_back(std::move(req));
  }

  exec::ExecutionEngine one(exec::EngineOptions{1});
  exec::ExecutionEngine eight(exec::EngineOptions{8});
  const auto a = one.run_batch(requests);
  const auto b = eight.run_batch(requests);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].probabilities.size(), b[i].probabilities.size());
    for (std::size_t k = 0; k < a[i].probabilities.size(); ++k)
      EXPECT_EQ(a[i].probabilities[k], b[i].probabilities[k])
          << "request " << i << " outcome " << k;
  }
}

TEST(ExecutionEngineTest, RunAboveTheTreeCapSumsItsShotRanges) {
  // One shot more than a tree holds: the run splits into [0, cap) and
  // [cap, cap + 1), and its counts are those two ranges' counts summed, on
  // any pool size.
  ir::QuantumCircuit bell(2);
  bell.h(0).cx(0, 1);
  exec::ExecutionConfig cfg = exec::ExecutionConfig::hardware(noise::device_by_name("rome"));
  cfg.shots = exec::kMaxShotsPerTree + 1;
  cfg.seed = 5;

  const auto tr = transpile::transpile(bell, cfg.device, cfg.transpile_options());
  const auto model = noise::NoiseModel::from_device(tr.restricted_device(cfg.device),
                                                    cfg.noise_options);
  const auto compiled = sim::compile_noisy_circuit(tr.circuit, model);
  ASSERT_EQ(compiled.num_qubits, 2);
  auto counts =
      sim::trajectory_counts_streamed(compiled, 0, exec::kMaxShotsPerTree, cfg.seed);
  const auto tail = sim::trajectory_counts_streamed(compiled, exec::kMaxShotsPerTree,
                                                    cfg.shots, cfg.seed);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += tail[i];
  const auto expected = transpile::unpermute_distribution(
      metrics::counts_to_distribution(counts), tr.wire_of_virtual);

  exec::ExecutionEngine one(exec::EngineOptions{1});
  exec::ExecutionEngine four(exec::EngineOptions{4});
  const auto a = one.run({bell, cfg});
  const auto b = four.run({bell, cfg});
  EXPECT_EQ(a.record.completed_shots, cfg.shots);
  EXPECT_EQ(a.probabilities, expected);
  EXPECT_EQ(b.probabilities, expected);
}

TEST(ExecutionEngineTest, CachedSecondRunMatchesFreshEngine) {
  const auto circuit = small_circuit();
  const exec::RunRequest request{circuit, trajectory_config()};

  exec::ExecutionEngine warm;
  const auto first = warm.run(request);
  const auto second = warm.run(request);  // all caches hot
  exec::ExecutionEngine fresh;
  const auto cold = fresh.run(request);

  EXPECT_FALSE(first.record.transpile_cache_hit);
  EXPECT_TRUE(second.record.transpile_cache_hit);
  EXPECT_TRUE(second.record.noise_model_cache_hit);
  EXPECT_TRUE(second.record.compiled_cache_hit);
  ASSERT_EQ(second.probabilities.size(), cold.probabilities.size());
  for (std::size_t k = 0; k < second.probabilities.size(); ++k) {
    EXPECT_EQ(first.probabilities[k], second.probabilities[k]);
    EXPECT_EQ(second.probabilities[k], cold.probabilities[k]);
  }
}

TEST(ExecutionEngineTest, RunRecordMatchesDirectTranspile) {
  const auto circuit = small_circuit();
  exec::ExecutionConfig cfg = simulator_config();
  cfg.optimization_level = 3;

  exec::ExecutionEngine engine;
  const auto result = engine.run({circuit, cfg});

  const auto tr =
      transpile::transpile(circuit, cfg.device, cfg.transpile_options());
  EXPECT_EQ(result.record.transpiled_cx, tr.circuit.count(ir::GateKind::CX));
  EXPECT_EQ(result.record.transpiled_depth, tr.circuit.depth());
  EXPECT_EQ(result.record.added_swaps, tr.added_swaps);
  EXPECT_EQ(result.record.initial_layout, tr.initial_layout);
  EXPECT_EQ(result.record.active_physical, tr.active_physical);
  EXPECT_EQ(result.record.engine.rfind("dm:", 0), 0u);
}

TEST(ExecutionEngineTest, RunRecordReportsFusionStats) {
  const auto circuit = small_circuit();
  exec::ExecutionConfig cfg = simulator_config();
  cfg.ideal = true;  // noise-free: fusion can merge every overlapping gate

  exec::ExecutionEngine engine;
  const auto result = engine.run({circuit, cfg});
  const auto& rec = result.record;

  EXPECT_GT(rec.source_gates, 0u);
  EXPECT_GT(rec.fused_gates, 0u);
  EXPECT_EQ(rec.compiled_steps + rec.fused_gates, rec.source_gates);
  EXPECT_EQ(rec.kernel_counts.total(), rec.compiled_steps);
  std::size_t blocks = 0;
  for (std::size_t k = 1; k < rec.fused_blocks_by_k.size(); ++k)
    blocks += rec.fused_blocks_by_k[k];
  EXPECT_GT(blocks, 0u);
  EXPECT_LE(blocks, rec.compiled_steps);
  EXPECT_EQ(rec.fused_blocks_by_k[0], 0u);
}

TEST(ExecutionEngineTest, DmResultsMatchLegacyExecutePath) {
  // The engine's DM path must reproduce execute_distribution bit for bit
  // (both are deterministic: exact evolution, no sampling).
  const auto circuit = small_circuit();
  const auto cfg = simulator_config();
  exec::ExecutionEngine engine;
  const auto result = engine.run({circuit, cfg});
  const auto legacy = approx::execute_distribution(circuit, cfg, &engine);
  ASSERT_EQ(result.probabilities.size(), legacy.size());
  for (std::size_t k = 0; k < legacy.size(); ++k)
    EXPECT_EQ(result.probabilities[k], legacy[k]);
}

TEST(ExecutionEngineTest, ScatterStudyTranspilesEachUniqueCircuitExactlyOnce) {
  // Acceptance criterion: a scatter workload transpiles every unique circuit
  // exactly once and builds its NoiseModel exactly once per engine.
  const auto reference = small_circuit();
  std::vector<synth::ApproxCircuit> approximations;
  for (int n = 1; n <= 3; ++n) {
    algos::TfimModel model;
    model.num_qubits = 3;
    synth::ApproxCircuit ac;
    ac.circuit = model.circuit_up_to(n);
    ac.cnot_count = ac.circuit.count(ir::GateKind::CX);
    approximations.push_back(std::move(ac));
  }

  exec::ExecutionEngine engine;
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b101;
  const auto study = approx::run_scatter_study(reference, approximations,
                                               simulator_config(), metric, &engine);
  ASSERT_EQ(study.scores.size(), approximations.size());

  const exec::CacheStats stats = engine.cache_stats_snapshot().stats;
  // 4 unique circuits (reference + 3 distinct Trotter prefixes): 4 transpile
  // misses and zero redundant transpiles.
  EXPECT_EQ(stats.transpile_misses, 4u);
  EXPECT_EQ(stats.transpile_hits, 0u);
  // All runs share one (device, options, subset) noise model... unless
  // routing placed some circuit on a different subset; either way each model
  // is built exactly once (misses == unique keys, and no re-miss on reuse).
  EXPECT_GE(stats.model_hits + stats.model_misses, 4u);
  EXPECT_LE(stats.model_misses, 4u);

  // Re-running the identical study costs zero new misses.
  const auto again = approx::run_scatter_study(reference, approximations,
                                               simulator_config(), metric, &engine);
  const exec::CacheStats stats2 = engine.cache_stats_snapshot().stats;
  EXPECT_EQ(stats2.transpile_misses, stats.transpile_misses);
  EXPECT_EQ(stats2.model_misses, stats.model_misses);
  EXPECT_EQ(again.reference_metric, study.reference_metric);
  EXPECT_EQ(again.reference_cnots, study.reference_cnots);
}

TEST(ExecutionEngineTest, ScatterReferenceRecordSuppliesCnots) {
  const auto reference = small_circuit();
  exec::ExecutionEngine engine;
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b101;
  const auto study =
      approx::run_scatter_study(reference, {}, simulator_config(), metric, &engine);
  EXPECT_EQ(study.reference_cnots, study.reference_record.transpiled_cx);
  EXPECT_GT(study.reference_record.transpiled_depth, 0u);
}

TEST(ExecutionEngineTest, IdealRunSkipsNoiseAndIsNormalized) {
  exec::ExecutionConfig cfg = simulator_config();
  cfg.ideal = true;
  exec::ExecutionEngine engine;
  const auto result = engine.run({small_circuit(), cfg});
  EXPECT_EQ(result.record.engine, "ideal");
  double sum = 0.0;
  for (double p : result.probabilities) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ExecutionEngineTest, CacheSnapshotReportsEntriesAndStats) {
  exec::ExecutionEngine engine;
  engine.run({small_circuit(), simulator_config()});
  engine.run({small_circuit(), simulator_config()});  // second run hits
  const exec::CacheSnapshot snap = engine.cache_stats_snapshot();
  EXPECT_EQ(snap.stats.transpile_hits, 1u);
  EXPECT_EQ(snap.stats.transpile_misses, 1u);
  EXPECT_GE(snap.transpile_entries, 1u);
  EXPECT_GE(snap.model_entries, 1u);
  engine.clear_caches();
  const exec::CacheSnapshot cleared = engine.cache_stats_snapshot();
  EXPECT_EQ(cleared.transpile_entries, 0u);
  EXPECT_EQ(cleared.compiled_entries, 0u);
}

TEST(ExecutionEngineTest, ClearCachesResetsCounters) {
  exec::ExecutionEngine engine;
  engine.run({small_circuit(), simulator_config()});
  engine.clear_caches();
  const auto stats = engine.cache_stats_snapshot().stats;
  EXPECT_EQ(stats.transpile_hits + stats.transpile_misses, 0u);
  const auto result = engine.run({small_circuit(), simulator_config()});
  EXPECT_FALSE(result.record.transpile_cache_hit);
}

TEST(ExecutionEngineTest, CachesStayAtTheirCapAndRecomputeTheEvictedEntryBitForBit) {
  // cap + 1 distinct one-gate circuits through one serial engine: each run
  // adds one transpile and one compiled entry, so the last run evicts the
  // first circuit's entries (the coldest) and nothing else.
  exec::ExecutionEngine engine(exec::EngineOptions{1});
  const auto request = [](std::size_t i) {
    exec::RunRequest req;
    req.circuit = ir::QuantumCircuit(1);
    req.circuit.rx(1e-3 * static_cast<double>(i + 1), 0);
    req.config = simulator_config();
    return req;
  };
  const std::vector<double> first = engine.run(request(0)).probabilities;
  for (std::size_t i = 1; i <= exec::kEngineCacheCap; ++i) engine.run(request(i));

  const exec::CacheSnapshot snap = engine.cache_stats_snapshot();
  EXPECT_EQ(snap.cap, exec::kEngineCacheCap);
  EXPECT_EQ(snap.transpile_entries, exec::kEngineCacheCap);
  EXPECT_EQ(snap.compiled_entries, exec::kEngineCacheCap);
  EXPECT_EQ(snap.model_entries, 1u);
  EXPECT_EQ(snap.stats.transpile_evictions, 1u);
  EXPECT_EQ(snap.stats.compiled_evictions, 1u);
  EXPECT_EQ(snap.stats.model_evictions, 0u);

  const exec::RunResult again = engine.run(request(0));
  EXPECT_FALSE(again.record.transpile_cache_hit);
  EXPECT_FALSE(again.record.compiled_cache_hit);
  EXPECT_EQ(again.probabilities, first);
}

}  // namespace
}  // namespace qc
