// Integration tests: end-to-end slices of the paper's experiments, scaled
// down to unit-test budgets. These check the cross-module claims the
// figures rest on, not just module contracts.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/grover.hpp"
#include "algos/mct.hpp"
#include "algos/tfim.hpp"
#include "approx/selection.hpp"
#include "approx/tfim_study.hpp"
#include "approx/workflow.hpp"
#include "metrics/distribution.hpp"
#include "metrics/process.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "sim/observables.hpp"
#include "synth/cache.hpp"
#include "transpile/pipeline.hpp"

namespace qc {
namespace {

// Observation 1 (core claim): under device noise, a short approximate
// circuit yields output closer to ideal than the deep exact circuit.
TEST(Integration, ShortApproximationBeatsDeepExactUnderNoise) {
  algos::TfimModel model;
  const int step = 8;  // deep enough that the reference has 32 CX
  const ir::QuantumCircuit reference = model.circuit_up_to(step);

  // Ideal output.
  const auto ideal = sim::ideal_probabilities(transpile::transpile_all_to_all(reference));
  const double ideal_mag = sim::average_z_magnetization(ideal);

  // Approximations via instrumented QSearch.
  approx::GeneratorConfig gen = approx::tfim_generator_preset(3);
  gen.qsearch.max_nodes = 12;
  const auto circuits = approx::generate_from_reference(reference, gen);
  ASSERT_FALSE(circuits.empty());

  // Noisy execution of both.
  approx::ExecutionConfig exec =
      approx::ExecutionConfig::simulator(noise::device_by_name("toronto"));
  approx::MetricSpec metric;  // magnetization
  const approx::ScatterStudy study =
      approx::run_scatter_study(reference, circuits, exec, metric);

  const double ref_err = std::abs(study.reference_metric - ideal_mag);
  double best_err = 1e9;
  for (const auto& s : study.scores)
    best_err = std::min(best_err, std::abs(s.metric - ideal_mag));
  EXPECT_LT(best_err, ref_err);
  // And the short circuits dominate the reference CX count.
  EXPECT_GT(study.reference_cnots, 20u);
  for (const auto& s : study.scores) EXPECT_LE(s.cnot_count, 6u);
}

// Observation 6: higher two-qubit error widens the approximate advantage and
// pushes the best circuit shallower (statistically).
TEST(Integration, HigherCxErrorFavorsShallowerCircuits) {
  algos::TfimModel model;
  const ir::QuantumCircuit reference = model.circuit_up_to(6);
  approx::GeneratorConfig gen = approx::tfim_generator_preset(3);
  gen.qsearch.max_nodes = 10;
  const auto circuits = approx::generate_from_reference(reference, gen);
  ASSERT_GT(circuits.size(), 3u);

  const auto ideal = sim::ideal_probabilities(transpile::transpile_all_to_all(reference));
  const double ideal_mag = sim::average_z_magnetization(ideal);

  auto best_depth_at = [&](double cx_error) {
    approx::ExecutionConfig exec =
        approx::ExecutionConfig::simulator(noise::device_by_name("ourense"));
    exec.noise_options.uniform_cx_error = cx_error;
    approx::MetricSpec metric;
    const auto study = approx::run_scatter_study(reference, circuits, exec, metric);
    return study.scores[approx::best_by_target_value(study.scores, ideal_mag)]
        .cnot_count;
  };

  const auto depth_low = best_depth_at(0.001);
  const auto depth_high = best_depth_at(0.24);
  EXPECT_LE(depth_high, depth_low);
}

// Grover under noise: the scatter straddles the reference, and the noisy
// success probability of approximations can exceed the reference's.
TEST(Integration, GroverApproximationsCanBeatReference) {
  const ir::QuantumCircuit reference = algos::grover_circuit(3, 0b111);
  approx::GeneratorConfig gen;
  gen.qsearch.max_nodes = 14;
  gen.qsearch.max_cnots = 6;
  gen.hs_threshold = 0.6;
  const auto circuits = approx::generate_from_reference(reference, gen);
  ASSERT_FALSE(circuits.empty());

  approx::ExecutionConfig exec =
      approx::ExecutionConfig::simulator(noise::device_by_name("toronto"));
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b111;
  const auto study = approx::run_scatter_study(reference, circuits, exec, metric);

  double best = 0.0;
  for (const auto& s : study.scores) best = std::max(best, s.metric);
  EXPECT_GT(best, study.reference_metric);
}

// Toffoli battery under hardware-mode noise reproduces the JS structure:
// every score is between 0 and the ln(2)^0.5 bound, the random-noise line
// sits at 0.465, and a deep reference lands close to (or beyond) it.
TEST(Integration, ToffoliJsStructureUnderHardwareNoise) {
  const int n = 4;
  const ir::QuantumCircuit battery = algos::mct_battery_circuit(n);
  approx::ExecutionConfig exec =
      approx::ExecutionConfig::hardware(noise::device_by_name("manhattan"));
  exec.shots = 2000;  // test budget
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::JsDistance;
  metric.ideal_distribution = algos::mct_battery_ideal_distribution(n);

  const auto probs = approx::execute_distribution(battery, exec);
  const double js = approx::score_distribution(probs, metric);
  EXPECT_GT(js, 0.15);  // clearly degraded
  EXPECT_LT(js, std::sqrt(std::log(2.0)) + 1e-9);
  // Ideal execution scores ~0 on the same metric.
  approx::ExecutionConfig ideal_exec =
      approx::ExecutionConfig::noise_free(noise::device_by_name("manhattan"));
  const double js_ideal = approx::score_distribution(
      approx::execute_distribution(battery, ideal_exec), metric);
  EXPECT_LT(js_ideal, 1e-6);
}

// Hardware mode is strictly worse than the plain noise model for the same
// device and circuit (the paper's sim-vs-hardware gap).
TEST(Integration, HardwareModeIsWorseThanSimulatorModel) {
  const ir::QuantumCircuit battery = algos::mct_battery_circuit(4);
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::JsDistance;
  metric.ideal_distribution = algos::mct_battery_ideal_distribution(4);

  const auto device = noise::device_by_name("manhattan");
  approx::ExecutionConfig sim_cfg = approx::ExecutionConfig::simulator(device);
  approx::ExecutionConfig hw_cfg = approx::ExecutionConfig::hardware(device);
  hw_cfg.use_trajectories = false;  // isolate the noise-model difference
  hw_cfg.optimization_level = 1;

  const double js_sim = approx::score_distribution(
      approx::execute_distribution(battery, sim_cfg), metric);
  const double js_hw = approx::score_distribution(
      approx::execute_distribution(battery, hw_cfg), metric);
  EXPECT_GT(js_hw, js_sim);
}

// The full pipeline is deterministic end to end.
TEST(Integration, EndToEndDeterminism) {
  algos::TfimModel model;
  approx::TfimStudyConfig cfg;
  cfg.model = model;
  cfg.steps = {3};
  cfg.generator = approx::tfim_generator_preset(3);
  cfg.generator.qsearch.max_nodes = 4;
  cfg.execution = approx::ExecutionConfig::simulator(noise::device_by_name("ourense"));
  // Both studies synthesize from scratch; a cache hit would compare nothing.
  synth::clear_synth_cache();
  const auto a = approx::run_tfim_study(cfg);
  synth::clear_synth_cache();
  const auto b = approx::run_tfim_study(cfg);
  ASSERT_EQ(a.timesteps.size(), b.timesteps.size());
  ASSERT_EQ(a.timesteps[0].scores.size(), b.timesteps[0].scores.size());
  for (std::size_t i = 0; i < a.timesteps[0].scores.size(); ++i)
    EXPECT_DOUBLE_EQ(a.timesteps[0].scores[i].metric, b.timesteps[0].scores[i].metric);
}

}  // namespace
}  // namespace qc
