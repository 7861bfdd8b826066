#include "approx/tfim_study.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/observables.hpp"

namespace qc::approx {

GeneratorConfig tfim_generator_preset(int num_qubits, bool fast) {
  GeneratorConfig gen;
  gen.hs_threshold = 0.5;
  if (num_qubits <= 3) {
    gen.use_qsearch = true;
    gen.qsearch.max_cnots = 6;
    gen.qsearch.max_nodes = 24;
    gen.qsearch.success_threshold = 1e-8;
    gen.qsearch.optimizer.max_iterations = 90;
    gen.qsearch.restarts_per_node = 2;
    gen.max_circuits = 80;
  } else {
    gen.use_qsearch = false;
    gen.use_qfast = true;
    gen.qfast.max_blocks = 8;  // up to 24 CX from QFast...
    gen.qfast.optimizer.max_iterations = 60;
    gen.qfast.restarts_per_depth = 2;
    gen.qfast.success_threshold = 1e-6;
    gen.use_reducer = true;    // ...and the deep tail from the reducer
    gen.reducer.keep_fractions = {0.0,  0.05, 0.1, 0.15, 0.25, 0.35,
                                  0.5,  0.65, 0.8, 0.9,  1.0};
    gen.reducer.variants_per_size = 2;
    gen.reducer.optimizer.max_iterations = 80;
    // Shallow skeletons at 4 qubits get the full re-dressing (TFIM-shaped
    // skeletons re-optimize to HS ~0.1 at 6-12 CX); deeper tails fall back
    // to boundary-layer optimization.
    gen.reducer.full_reopt_max_qubits = 4;
    gen.reducer.full_reopt_max_cx = 12;
    gen.max_circuits = 80;
  }
  if (fast) {
    gen.qsearch.max_nodes = 8;
    gen.qfast.max_blocks = 3;
    gen.reducer.variants_per_size = 1;
    gen.max_circuits = 24;
  }
  return gen;
}

TfimStudyResult run_tfim_study(const TfimStudyConfig& config) {
  std::vector<int> steps = config.steps;
  if (steps.empty()) {
    for (int s = 1; s <= config.model.num_steps; ++s) steps.push_back(s);
  }

  TfimStudyResult result;
  result.timesteps.resize(steps.size());

  common::parallel_for(0, steps.size(), [&](std::size_t si) {
    const int step = steps[si];
    TfimTimestepResult& out = result.timesteps[si];
    out.step = step;

    // One failing timestep must not abort the study (parallel_for rethrows
    // the first worker exception); it completes annotated instead.
    try {
      const ir::QuantumCircuit reference = config.model.circuit_up_to(step);

      // Per-timestep deterministic seeds so the clouds differ across steps.
      GeneratorConfig gen = config.generator;
      gen.qsearch.seed += static_cast<std::uint64_t>(step) * 101;
      gen.qfast.seed += static_cast<std::uint64_t>(step) * 103;
      gen.reducer.seed += static_cast<std::uint64_t>(step) * 107;
      // Machine-aware synthesis (as the paper configured QSearch): restrict
      // blocks to a line, which embeds swap-free into every catalog device —
      // otherwise routing would inflate the approximations' CNOT counts while
      // the line-shaped TFIM reference routes for free.
      const noise::CouplingMap line = noise::CouplingMap::line(config.model.num_qubits);
      GenerationReport gen_report;
      out.circuits = generate_from_reference(reference, gen, &line, &gen_report);
      out.degraded = gen_report.degraded();

      // Noise-free reference (ideal sim of the Trotter circuit).
      ExecutionConfig ideal = config.execution;
      ideal.ideal = true;
      out.noise_free_reference = sim::average_z_magnetization(
          execute_distribution(reference, ideal));

      // Noisy reference + cloud under the study's execution config.
      MetricSpec metric;
      metric.kind = MetricSpec::Kind::Magnetization;
      ExecutionConfig noisy = config.execution;
      noisy.seed = config.execution.seed + static_cast<std::uint64_t>(step) * 7919;
      const ScatterStudy scatter =
          run_scatter_study(reference, out.circuits, noisy, metric);
      out.noisy_reference = scatter.reference_metric;
      out.reference_cnots = scatter.reference_cnots;
      out.scores = scatter.scores;
      for (const auto& s : out.scores)
        if (s.failed() || s.timed_out) out.degraded = true;

      out.minimal_hs = minimal_hs_index(out.circuits);
      out.best_output = best_by_target_value(out.scores, out.noise_free_reference);
    } catch (const common::Error& e) {
      out.error = std::string(e.kind()) + ": " + e.what();
      QC_LOG_ERROR("approx", "TFIM timestep %d failed: %s", step, out.error.c_str());
    }
  });

  for (const auto& ts : result.timesteps) {
    if (!ts.ok() || ts.scores.empty()) continue;
    result.max_precision_gain =
        std::max(result.max_precision_gain,
                 precision_gain(ts.scores, ts.noisy_reference, ts.noise_free_reference));
  }
  return result;
}

}  // namespace qc::approx
