// Unit tests for qc::approx — workflow, selection, execution, studies.
#include <gtest/gtest.h>

#include <cmath>

#include "approx/experiment.hpp"
#include "approx/mapping_study.hpp"
#include "approx/selection.hpp"
#include "approx/tfim_study.hpp"
#include "approx/workflow.hpp"
#include "common/error.hpp"
#include "metrics/process.hpp"
#include "sim/compiled.hpp"
#include "synth/cache.hpp"

namespace qc::approx {
namespace {

using synth::ApproxCircuit;

ApproxCircuit make_fake(int cnots, double hs) {
  ir::QuantumCircuit qc(2);
  for (int i = 0; i < cnots; ++i) qc.cx(0, 1);
  return ApproxCircuit{std::move(qc), hs, static_cast<std::size_t>(cnots), "test"};
}

TEST(Workflow, ThresholdClampsToPaperFloor) {
  // Threshold requested below 0.1 still admits circuits up to 0.1.
  std::vector<ApproxCircuit> harvest;
  harvest.push_back(make_fake(1, 0.05));
  harvest.push_back(make_fake(2, 0.09));
  harvest.push_back(make_fake(3, 0.3));
  const auto kept = select_candidates(std::move(harvest), 0.01, 100);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Workflow, ThresholdFiltersAbove) {
  std::vector<ApproxCircuit> harvest;
  harvest.push_back(make_fake(1, 0.2));
  harvest.push_back(make_fake(2, 0.6));
  const auto kept = select_candidates(std::move(harvest), 0.5, 100);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_NEAR(kept[0].hs_distance, 0.2, 1e-12);
}

TEST(Workflow, CapKeepsPerDepthChampions) {
  std::vector<ApproxCircuit> harvest;
  for (int d = 1; d <= 6; ++d) {
    harvest.push_back(make_fake(d, 0.01 * d));
    harvest.push_back(make_fake(d, 0.01 * d + 0.005));
  }
  const auto kept = select_candidates(std::move(harvest), 1.0, 6);
  EXPECT_EQ(kept.size(), 6u);
  // One champion per CNOT count survives.
  for (int d = 1; d <= 6; ++d) {
    int found = 0;
    for (const auto& c : kept)
      if (c.cnot_count == static_cast<std::size_t>(d)) ++found;
    EXPECT_EQ(found, 1) << d;
  }
}

TEST(Workflow, DedupRemovesNearDuplicates) {
  std::vector<ApproxCircuit> harvest;
  harvest.push_back(make_fake(2, 0.123456));
  harvest.push_back(make_fake(2, 0.123456 + 1e-9));
  const auto kept = select_candidates(std::move(harvest), 1.0, 100);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(Workflow, GenerateFromReferenceProducesFaithfulRecords) {
  ir::QuantumCircuit ref(2);
  ref.h(0).cx(0, 1).rz(0.3, 1);
  GeneratorConfig cfg;
  cfg.qsearch.max_nodes = 6;
  cfg.qsearch.max_cnots = 2;
  cfg.hs_threshold = 1.0;
  const auto circuits = generate_from_reference(ref, cfg);
  ASSERT_FALSE(circuits.empty());
  const auto target = ref.to_unitary();
  for (const auto& c : circuits) {
    EXPECT_NEAR(c.hs_distance,
                metrics::hs_distance(target, c.circuit.to_unitary()), 1e-6);
    EXPECT_LE(c.hs_distance, 1.0);
  }
}

TEST(Selection, MinimalHsPrefersLowDistanceThenFewerCnots) {
  std::vector<ApproxCircuit> circuits;
  circuits.push_back(make_fake(5, 0.2));
  circuits.push_back(make_fake(3, 0.05));
  circuits.push_back(make_fake(1, 0.05));
  EXPECT_EQ(minimal_hs_index(circuits), 2u);
}

TEST(Selection, BestByHelpers) {
  std::vector<CircuitScore> scores = {{0, 1, 0.1, 0.4, ""}, {1, 2, 0.2, 0.9, ""},
                                      {2, 3, 0.3, 0.6, ""}};
  EXPECT_EQ(best_by_max(scores), 1u);
  EXPECT_EQ(best_by_min(scores), 0u);
  EXPECT_EQ(best_by_target_value(scores, 0.55), 2u);
}

TEST(Selection, FractionBeatingReference) {
  std::vector<CircuitScore> scores = {{0, 1, 0, 0.8, ""}, {1, 1, 0, 0.5, ""}, {2, 1, 0, 0.9, ""}};
  EXPECT_NEAR(fraction_beating_reference(scores, 0.7, true), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(fraction_beating_reference(scores, 0.7, false), 1.0 / 3.0, 1e-12);
}

TEST(Selection, PrecisionGainMatchesHandComputation) {
  // ideal = 1.0; reference = 0.5 (err 0.5); best approx = 0.8 (err 0.2).
  std::vector<CircuitScore> scores = {{0, 1, 0, 0.8, ""}, {1, 1, 0, 0.3, ""}};
  EXPECT_NEAR(precision_gain(scores, 0.5, 1.0), 0.6, 1e-12);
}

TEST(Execution, IdealRunMatchesDirectSimulation) {
  ir::QuantumCircuit qc(3);
  qc.h(0).cx(0, 1).cx(1, 2);
  ExecutionConfig cfg = ExecutionConfig::noise_free(noise::device_by_name("ourense"));
  const auto probs = execute_distribution(qc, cfg);
  const auto expect = sim::ideal_probabilities(qc);
  ASSERT_EQ(probs.size(), expect.size());
  for (std::size_t i = 0; i < probs.size(); ++i) ASSERT_NEAR(probs[i], expect[i], 1e-8);
}

TEST(Execution, NoisyRunIsDegradedButNormalized) {
  ir::QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  ExecutionConfig cfg = ExecutionConfig::simulator(noise::device_by_name("rome"));
  const auto probs = execute_distribution(qc, cfg);
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(probs[1] + probs[2], 0.0);  // leakage off the Bell support
}

TEST(Execution, MetricScoring) {
  MetricSpec success;
  success.kind = MetricSpec::Kind::SuccessProbability;
  success.target_outcome = 3;
  EXPECT_NEAR(score_distribution({0.1, 0.1, 0.1, 0.7}, success), 0.7, 1e-12);

  MetricSpec js;
  js.kind = MetricSpec::Kind::JsDistance;
  js.ideal_distribution = {1.0, 0.0};
  EXPECT_NEAR(score_distribution({1.0, 0.0}, js), 0.0, 1e-9);

  MetricSpec mag;
  mag.kind = MetricSpec::Kind::Magnetization;
  EXPECT_NEAR(score_distribution({1.0, 0.0, 0.0, 0.0}, mag), 1.0, 1e-12);
}

TEST(Execution, JsMetricWithoutIdealThrows) {
  MetricSpec js;
  js.kind = MetricSpec::Kind::JsDistance;
  EXPECT_THROW(score_distribution({1.0, 0.0}, js), common::Error);
}

TEST(Scatter, ScoresEveryCircuitDeterministically) {
  ir::QuantumCircuit ref(2);
  ref.h(0).cx(0, 1);
  std::vector<ApproxCircuit> approx;
  approx.push_back(make_fake(1, 0.1));
  approx.push_back(make_fake(3, 0.2));
  ExecutionConfig cfg = ExecutionConfig::simulator(noise::device_by_name("ourense"));
  MetricSpec metric;
  metric.kind = MetricSpec::Kind::Magnetization;
  const ScatterStudy a = run_scatter_study(ref, approx, cfg, metric);
  const ScatterStudy b = run_scatter_study(ref, approx, cfg, metric);
  ASSERT_EQ(a.scores.size(), 2u);
  EXPECT_DOUBLE_EQ(a.reference_metric, b.reference_metric);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(a.scores[i].metric, b.scores[i].metric);
    EXPECT_EQ(a.scores[i].cnot_count, approx[i].cnot_count);
  }
}

TEST(TfimStudy, SmallStudyProducesCoherentSeries) {
  TfimStudyConfig cfg;
  cfg.model.num_qubits = 3;
  cfg.model.num_steps = 21;
  cfg.steps = {1, 4};
  cfg.generator = tfim_generator_preset(3);
  cfg.generator.qsearch.max_nodes = 5;  // keep the unit test fast
  cfg.generator.qsearch.optimizer.max_iterations = 40;
  cfg.execution = ExecutionConfig::simulator(noise::device_by_name("ourense"));
  const TfimStudyResult result = run_tfim_study(cfg);
  ASSERT_EQ(result.timesteps.size(), 2u);
  for (const auto& ts : result.timesteps) {
    EXPECT_FALSE(ts.circuits.empty());
    EXPECT_EQ(ts.scores.size(), ts.circuits.size());
    EXPECT_LE(std::abs(ts.noise_free_reference), 1.0);
    EXPECT_LT(ts.minimal_hs, ts.circuits.size());
    EXPECT_LT(ts.best_output, ts.scores.size());
    EXPECT_GT(ts.reference_cnots, 0u);
  }
  // Best-output pick can't be further from ideal than the noisy reference
  // unless every circuit is worse; sanity: gain is finite.
  EXPECT_GE(result.max_precision_gain, -1.0);
}

TEST(Workflow, RepeatedGenerationReportsCacheHits) {
  ir::QuantumCircuit ref(2);
  ref.h(0).cx(0, 1).rz(0.3, 1);
  GeneratorConfig cfg;
  cfg.qsearch.max_nodes = 5;
  cfg.qsearch.max_cnots = 2;
  cfg.hs_threshold = 1.0;
  synth::clear_synth_cache();
  GenerationReport first, second;
  const auto a = generate_from_reference(ref, cfg, nullptr, &first);
  const auto b = generate_from_reference(ref, cfg, nullptr, &second);
  EXPECT_GE(first.synth_cache_misses, 1u);
  EXPECT_GE(second.synth_cache_hits, 1u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hs_distance, b[i].hs_distance);
    EXPECT_EQ(a[i].cnot_count, b[i].cnot_count);
  }
}

TEST(TfimStudy, RerunHitsSynthesisCache) {
  TfimStudyConfig cfg;
  cfg.model.num_qubits = 3;
  cfg.model.num_steps = 21;
  cfg.steps = {1};
  cfg.generator = tfim_generator_preset(3);
  cfg.generator.qsearch.max_nodes = 4;  // keep the unit test fast
  cfg.generator.qsearch.optimizer.max_iterations = 30;
  cfg.execution = ExecutionConfig::simulator(noise::device_by_name("ourense"));
  synth::clear_synth_cache();
  run_tfim_study(cfg);
  const synth::SynthCacheStats between = synth::synth_cache_stats();
  const TfimStudyResult rerun = run_tfim_study(cfg);
  const synth::SynthCacheStats after = synth::synth_cache_stats();
  // The second study re-synthesizes an identical timestep block: every
  // generator call should come straight from the cache.
  EXPECT_GT(after.hits, between.hits);
  ASSERT_EQ(rerun.timesteps.size(), 1u);
  EXPECT_FALSE(rerun.timesteps[0].circuits.empty());
}

TEST(MappingStudy, EnumerationRanksByCost) {
  ir::QuantumCircuit qc = ir::QuantumCircuit(3);
  qc.cx(0, 1).cx(1, 2);
  const auto device = noise::device_by_name("toronto");
  const auto mappings = enumerate_mappings(qc, device);
  ASSERT_EQ(mappings.size(), 5u);  // 4 manual + auto
  EXPECT_EQ(mappings[0].label, "best");
  EXPECT_EQ(mappings[1].label, "mid1");
  EXPECT_EQ(mappings[2].label, "mid2");
  EXPECT_EQ(mappings[3].label, "worst");
  EXPECT_LE(mappings[0].cost, mappings[1].cost);
  EXPECT_LE(mappings[1].cost, mappings[2].cost);
  EXPECT_LE(mappings[2].cost, mappings[3].cost);
  EXPECT_EQ(mappings[4].label, "auto");
  EXPECT_TRUE(mappings[4].layout.empty());
}

TEST(MappingStudy, DeviceReportsCoverEverything) {
  const auto device = noise::device_by_name("toronto");
  EXPECT_EQ(device_readout_report(device).num_rows(),
            static_cast<std::size_t>(device.num_qubits()));
  EXPECT_EQ(device_cx_report(device).num_rows(), device.coupling.num_edges());
}

}  // namespace
}  // namespace qc::approx

namespace qc::approx {
namespace {

TEST(Selection, NoiseAwareDegeneratesToMinimalHsAtZeroError) {
  std::vector<synth::ApproxCircuit> circuits;
  circuits.push_back(make_fake(6, 0.02));
  circuits.push_back(make_fake(2, 0.10));
  EXPECT_EQ(noise_aware_index(circuits, 0.0), minimal_hs_index(circuits));
}

TEST(Selection, NoiseAwarePrefersShallowOnNoisyDevices) {
  // Deep-but-exact vs shallow-but-approximate: the crossover moves with the
  // device's CX error, exactly the behaviour Figures 8-11 document.
  std::vector<synth::ApproxCircuit> circuits;
  circuits.push_back(make_fake(20, 0.01));  // deep, near-exact
  circuits.push_back(make_fake(3, 0.12));   // shallow, approximate
  EXPECT_EQ(noise_aware_index(circuits, 0.001), 0u);  // quiet machine: depth ok
  EXPECT_EQ(noise_aware_index(circuits, 0.05), 1u);   // noisy machine: go shallow
}

}  // namespace
}  // namespace qc::approx
