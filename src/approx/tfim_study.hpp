// The TFIM magnetization study (Figures 2-4, 8-13).
//
// For each of the model's timesteps: build the reference Trotter circuit,
// harvest approximations of its unitary, execute reference and cloud under
// one execution config, and record the magnetization series the paper plots
// (noise-free reference, noisy reference, minimal-HS pick, best-approximate
// pick, full cloud).
#pragma once

#include "algos/tfim.hpp"
#include "approx/experiment.hpp"
#include "approx/selection.hpp"
#include "approx/workflow.hpp"

namespace qc::approx {

struct TfimStudyConfig {
  algos::TfimModel model;
  GeneratorConfig generator;
  ExecutionConfig execution;
  /// Timesteps to evaluate (default: all 1..num_steps).
  std::vector<int> steps;
};

struct TfimTimestepResult {
  int step = 0;
  double noise_free_reference = 0.0;  // ideal sim of the Trotter circuit
  double noisy_reference = 0.0;       // reference under the execution config
  std::size_t reference_cnots = 0;
  std::vector<synth::ApproxCircuit> circuits;
  std::vector<CircuitScore> scores;       // noisy magnetization per circuit
  std::size_t minimal_hs = 0;             // indices into `circuits`/`scores`
  std::size_t best_output = 0;
  /// Resilience annotations. `degraded` means generation lost a tool, timed
  /// out, or fell back to the reference (see GenerationReport); a non-empty
  /// `error` means the whole timestep failed — its `circuits`/`scores` may
  /// then be empty and must not be indexed.
  bool degraded = false;
  std::string error;

  bool ok() const { return error.empty(); }
};

struct TfimStudyResult {
  std::vector<TfimTimestepResult> timesteps;
  /// max over timesteps of the paper's precision-gain statistic.
  double max_precision_gain = 0.0;
};

TfimStudyResult run_tfim_study(const TfimStudyConfig& config);

/// Bounded-budget generator presets used across the TFIM figures:
/// QSearch-based for 3 qubits, QFast+reducer for 4 (see DESIGN.md). `fast`
/// trims search budgets for smoke runs (the bench --fast flag).
GeneratorConfig tfim_generator_preset(int num_qubits, bool fast = false);

}  // namespace qc::approx
