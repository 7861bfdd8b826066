#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "algos/grover.hpp"
#include "algos/mct.hpp"
#include "approx/mapping_study.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "noise/catalog.hpp"
#include "obs/obs.hpp"
#include "transpile/decompose.hpp"

namespace qc::bench {

BenchContext::BenchContext(int argc, char** argv, const std::string& figure_id)
    : common::driver::DriverContext(argc, argv, figure_id) {}

void print_banner(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("build: %s\n", obs::build_info_summary().c_str());
  std::printf("==============================================================\n");
}

void emit_table(const BenchContext& ctx, const std::string& id,
                const common::Table& table, std::size_t max_print_rows) {
  if (table.num_rows() <= max_print_rows) {
    std::printf("%s", table.to_string().c_str());
  } else {
    common::Table head(table.headers());
    for (std::size_t r = 0; r < max_print_rows; ++r) head.add_row(table.row(r));
    std::printf("%s", head.to_string().c_str());
    std::printf("... (%zu more rows in %s)\n", table.num_rows() - max_print_rows,
                ctx.csv_path.c_str());
  }
  table.write_csv(ctx.csv_path);
  std::printf("[%s] wrote %zu rows to %s\n", id.c_str(), table.num_rows(),
              ctx.csv_path.c_str());
  // The figure's output now exists on disk: a deadline expiring after this
  // point is a soft expiry (run_main exits 0 with an annotation).
  common::note_partial_results("table " + id + " -> " + ctx.csv_path);
  print_engine_cache_stats(id);
}

void print_engine_cache_stats(const std::string& id) {
  // The snapshot also publishes exec.engine.cache.* gauges, so binaries run
  // with QAPPROX_METRICS export per-engine cache state without extra wiring.
  const exec::CacheSnapshot snap =
      common::driver::engine().cache_stats_snapshot();
  const exec::CacheStats& s = snap.stats;
  if (s.transpile_hits + s.transpile_misses == 0) return;  // engine unused
  std::printf("[%s] engine caches: transpile %zu/%zu hits (%.0f%%), "
              "noise model %zu/%zu (%.0f%%), compiled %zu/%zu (%.0f%%), "
              "%zu entries resident, %zu evicted\n",
              id.c_str(), s.transpile_hits, s.transpile_hits + s.transpile_misses,
              100.0 * exec::CacheStats::rate(s.transpile_hits, s.transpile_misses),
              s.model_hits, s.model_hits + s.model_misses,
              100.0 * exec::CacheStats::rate(s.model_hits, s.model_misses),
              s.compiled_hits, s.compiled_hits + s.compiled_misses,
              100.0 * exec::CacheStats::rate(s.compiled_hits, s.compiled_misses),
              snap.transpile_entries + snap.model_entries + snap.compiled_entries,
              s.transpile_evictions + s.model_evictions + s.compiled_evictions);
}

void shape_check(const std::string& what, bool ok, double lhs, double rhs) {
  std::printf("SHAPE %-4s %s  (%.4g vs %.4g)\n", ok ? "PASS" : "FAIL", what.c_str(),
              lhs, rhs);
}

approx::TfimStudyConfig tfim_config(const BenchContext& ctx,
                                    const std::string& device_name, int num_qubits,
                                    bool hardware_mode) {
  approx::TfimStudyConfig cfg;
  cfg.model.num_qubits = num_qubits;
  cfg.model.num_steps = 21;

  const int max_step = ctx.args.get_number("steps", ctx.fast ? 6 : 21, 1, cfg.model.num_steps);
  const int stride = ctx.fast ? 2 : 1;
  for (int s = 1; s <= max_step; s += stride) cfg.steps.push_back(s);

  cfg.generator = approx::tfim_generator_preset(num_qubits, ctx.fast);

  const auto device = common::driver::device(device_name);
  cfg.execution = hardware_mode ? approx::ExecutionConfig::hardware(device)
                                : approx::ExecutionConfig::simulator(device);
  cfg.execution.shots = ctx.shots;
  return cfg;
}

ToffoliSetup make_toffoli_setup(const BenchContext& ctx, int num_qubits) {
  ToffoliSetup setup;
  setup.reference_battery = algos::mct_battery_circuit(num_qubits);
  setup.metric.kind = approx::MetricSpec::Kind::JsDistance;
  setup.metric.ideal_distribution = algos::mct_battery_ideal_distribution(num_qubits);
  setup.random_noise_js = algos::mct_random_noise_js();

  // Approximate the bare gate, then wrap each candidate with the battery
  // prefix so execution exercises every control pattern at once. Synthesis
  // is machine-aware (line blocks embed swap-free into every device).
  const ir::QuantumCircuit gate_reference = algos::mct_reference_circuit(num_qubits);
  const noise::CouplingMap line = noise::CouplingMap::line(num_qubits);
  const auto raw = approx::generate_from_reference(
      gate_reference, approx::toffoli_generator_preset(num_qubits, ctx.fast), &line);

  double best_qfast_hs = 2.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    synth::ApproxCircuit wrapped = raw[i];
    ir::QuantumCircuit battery = algos::mct_battery_prefix(num_qubits);
    battery.append(wrapped.circuit);
    wrapped.circuit = std::move(battery);
    if (raw[i].source == "qfast" && raw[i].hs_distance < best_qfast_hs) {
      best_qfast_hs = raw[i].hs_distance;
      setup.qfast_default_index = i;
    }
    setup.battery.push_back(std::move(wrapped));
  }
  return setup;
}

MappingFigure run_toronto_mapping_figure(const BenchContext& ctx,
                                         const std::string& label) {
  const auto device = common::driver::device("toronto");
  const ToffoliSetup setup = make_toffoli_setup(ctx, 4);

  const auto mappings =
      approx::enumerate_mappings(setup.reference_battery, device);
  const approx::MappingCandidate* chosen = nullptr;
  for (const auto& m : mappings)
    if (m.label == label) chosen = &m;
  QC_CHECK_MSG(chosen != nullptr, "unknown mapping label: " + label);

  approx::ExecutionConfig exec = approx::ExecutionConfig::hardware(device);
  exec.shots = ctx.shots;
  if (chosen->layout.empty()) {
    exec.optimization_level = 3;
  } else {
    exec.optimization_level = 1;
    exec.initial_layout = chosen->layout;
  }

  MappingFigure fig;
  fig.label = chosen->label;
  fig.layout = chosen->layout;
  fig.layout_cost = chosen->cost;
  fig.random_noise_js = setup.random_noise_js;
  fig.study = approx::run_scatter_study(setup.reference_battery, setup.battery, exec,
                                        setup.metric);
  return fig;
}

approx::TfimStudyResult run_ourense_sweep_level(const BenchContext& ctx,
                                                double cx_error) {
  approx::TfimStudyConfig cfg = tfim_config(ctx, "ourense", 3, false);
  cfg.execution.noise_options.uniform_cx_error = cx_error;
  return approx::run_tfim_study(cfg);
}

namespace {
double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}
}  // namespace

double depth_error_correlation(const approx::TfimStudyResult& result) {
  // Mean *within-timestep* correlation: pooling timesteps would mix the
  // time-varying ideal value into the statistic.
  double sum = 0.0;
  int counted = 0;
  for (const auto& ts : result.timesteps) {
    std::vector<double> xs, ys;
    for (const auto& s : ts.scores) {
      xs.push_back(static_cast<double>(s.cnot_count));
      ys.push_back(std::abs(s.metric - ts.noise_free_reference));
    }
    if (xs.size() < 3) continue;
    sum += pearson(xs, ys);
    ++counted;
  }
  return counted ? sum / counted : 0.0;
}

common::Table tfim_series_table(const approx::TfimStudyResult& result) {
  common::Table table({"step", "noise_free_ref", "noisy_ref", "minimal_hs",
                       "best_approx", "ref_cnots", "minhs_cnots", "best_cnots"});
  for (const auto& ts : result.timesteps) {
    table.add_row({std::to_string(ts.step),
                   common::format_double(ts.noise_free_reference, 4),
                   common::format_double(ts.noisy_reference, 4),
                   common::format_double(ts.scores[ts.minimal_hs].metric, 4),
                   common::format_double(ts.scores[ts.best_output].metric, 4),
                   std::to_string(ts.reference_cnots),
                   std::to_string(ts.circuits[ts.minimal_hs].cnot_count),
                   std::to_string(ts.circuits[ts.best_output].cnot_count)});
  }
  return table;
}

common::Table tfim_cloud_table(const approx::TfimStudyResult& result) {
  common::Table table({"step", "circuit", "cnots", "hs_distance", "magnetization",
                       "noise_free_ref", "noisy_ref"});
  for (const auto& ts : result.timesteps) {
    for (const auto& s : ts.scores) {
      table.add_row({std::to_string(ts.step), std::to_string(s.index),
                     std::to_string(s.cnot_count),
                     common::format_double(s.hs_distance, 5),
                     common::format_double(s.metric, 4),
                     common::format_double(ts.noise_free_reference, 4),
                     common::format_double(ts.noisy_reference, 4)});
    }
  }
  return table;
}

common::Table scatter_table(const approx::ScatterStudy& study,
                            const std::string& metric_name) {
  common::Table table({"circuit", "cnots", "hs_distance", metric_name});
  table.add_row({"reference", std::to_string(study.reference_cnots), "0",
                 common::format_double(study.reference_metric, 4)});
  for (const auto& s : study.scores) {
    table.add_row({std::to_string(s.index), std::to_string(s.cnot_count),
                   common::format_double(s.hs_distance, 5),
                   common::format_double(s.metric, 4)});
  }
  return table;
}

}  // namespace qc::bench
