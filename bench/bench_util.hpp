// Shared plumbing for the paper-reproduction bench binaries.
//
// Every binary prints (a) the series/rows of its paper figure or table,
// (b) a machine-readable CSV next to the binary, and (c) "SHAPE" lines
// asserting the qualitative claims the figure supports (who wins, which way
// the trend points). EXPERIMENTS.md quotes these outputs.
//
// Common flags: --fast (shrink budgets for smoke runs), --steps=N (TFIM
// timestep cap), --shots=N (trajectory engines), --csv=path.
#pragma once

#include <string>
#include <vector>

#include "approx/experiment.hpp"
#include "approx/selection.hpp"
#include "approx/tfim_study.hpp"
#include "approx/workflow.hpp"
#include "common/cli.hpp"
#include "common/driver.hpp"
#include "common/table.hpp"

namespace qc::bench {

/// The shared driver surface (--fast/--shots/--seed/--csv/--version, runtime
/// init) plus bench conventions: the default csv path is "<figure_id>.csv".
struct BenchContext : common::driver::DriverContext {
  BenchContext(int argc, char** argv, const std::string& figure_id);
};

/// Prints the standard figure banner.
void print_banner(const std::string& id, const std::string& title);

/// Prints the table and writes `<id>.csv` (or the --csv override).
void emit_table(const BenchContext& ctx, const std::string& id,
                const common::Table& table, std::size_t max_print_rows = 64);

/// One "SHAPE" assertion line: prints PASS/FAIL plus the two numbers.
void shape_check(const std::string& what, bool ok, double lhs, double rhs);

/// Prints the global ExecutionEngine's cache hit rates (transpile /
/// noise-model / compiled-program caches). Called by emit_table so every
/// figure binary reports how much pipeline work the engine amortized.
void print_engine_cache_stats(const std::string& id);

// ---- workload presets shared across figures --------------------------------

/// TFIM study config for a figure: device by name, simulator or hardware
/// execution, generator preset by width. Respects --steps and --fast.
approx::TfimStudyConfig tfim_config(const BenchContext& ctx,
                                    const std::string& device_name, int num_qubits,
                                    bool hardware_mode);

/// Shared setup of the Toffoli JS studies (Figures 6, 7, 15, 17-19):
/// approximations of the bare n-qubit MCX, each wrapped with the battery
/// prefix (H on all controls) for execution, scored by JS distance from the
/// ideal battery distribution.
struct ToffoliSetup {
  ir::QuantumCircuit reference_battery;            // prefix + no-ancilla MCX
  std::vector<synth::ApproxCircuit> battery;       // prefix + each approximation
  approx::MetricSpec metric;                       // JS vs ideal battery output
  std::size_t qfast_default_index = 0;             // the paper's red QFast dot
  double random_noise_js = 0.0;                    // the 0.465 line
};

ToffoliSetup make_toffoli_setup(const BenchContext& ctx, int num_qubits);

/// Figures 17-19: the 4q Toffoli battery on the Toronto physical machine
/// under one mapping candidate ("best" / "worst" / "auto").
struct MappingFigure {
  std::string label;
  transpile::Layout layout;        // empty for "auto"
  double layout_cost = 0.0;
  approx::ScatterStudy study;
  double random_noise_js = 0.0;
};

MappingFigure run_toronto_mapping_figure(const BenchContext& ctx,
                                         const std::string& label);

/// One level of the Figures 8-10 sensitivity sweep: the 3q TFIM study on the
/// Ourense model with the two-qubit depolarizing probability forced to
/// `cx_error` (all other noise sources intact).
approx::TfimStudyResult run_ourense_sweep_level(const BenchContext& ctx,
                                                double cx_error);

/// Pearson correlation between a circuit's CNOT count and its output error
/// |magnetization - noise-free reference| across the whole study; the
/// Figures 8-10 "is depth predictive?" statistic.
double depth_error_correlation(const approx::TfimStudyResult& result);

// ---- table builders ---------------------------------------------------------

/// Figure 2-style series table: step, noise-free ref, noisy ref, minimal-HS,
/// best-approximate (+ CNOT counts of the picks).
common::Table tfim_series_table(const approx::TfimStudyResult& result);

/// Figure 3-style cloud table: step, circuit index, cnots, hs, magnetization.
common::Table tfim_cloud_table(const approx::TfimStudyResult& result);

/// Figure 5/6/7-style scatter table: index, cnots, hs, metric (+ reference).
common::Table scatter_table(const approx::ScatterStudy& study,
                            const std::string& metric_name);

}  // namespace qc::bench
