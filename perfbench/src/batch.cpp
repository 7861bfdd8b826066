// Batch workloads: the fig03 (tfim_dm), fig12 (tfim_hw) and fig06
// (toffoli_dm) pipelines, rebuilt from the library's public calls so every
// phase can be timed from the main thread:
//
//   harvest  approx::generate_from_reference per unit (parallel_for over
//            TFIM timesteps; one call for the Toffoli gate)
//   execute  one exec::ExecutionEngine::run_batch over every reference and
//            approximation of the figure
//   score    approx::score_distribution + the paper's selections
//
// Requests carry the same configs and seeds as approx::run_tfim_study /
// run_scatter_study, so the outputs must equal the library pipeline's; each
// traced run checks that once, untimed. Each repeat starts from empty engine and
// synthesis caches, so every repeat times the same cold figure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "algos/mct.hpp"
#include "algos/tfim.hpp"
#include "approx/experiment.hpp"
#include "approx/selection.hpp"
#include "approx/tfim_study.hpp"
#include "approx/workflow.hpp"
#include "common/driver.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/observables.hpp"
#include "synth/cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace approx = qc::approx;
namespace exec = qc::exec;
namespace driver = qc::common::driver;
namespace obs = qc::obs;

/// Input variants per batch workload: the seed picks one (seed mod 8), and
/// reference.json holds the recorded outputs of all of them.
constexpr int kVariants = 8;
/// tfim_hw runs the full 21-step figure at half the fig12 shot budget, which
/// keeps a figure near 3 s on 4 cores while evolve still dominates.
constexpr std::size_t kHwShots = 1024;
constexpr int kMinRepeats = 3;
/// Output tolerance against reference.json, 1e-9 relative for every value:
/// density-matrix and ideal values are deterministic, and trajectory values
/// are too, since every run has a fixed seed and the engine's results do not
/// depend on the thread count.
constexpr double kExactTol = 1e-9;
/// Share of figure_s the traced run may leave outside its harvest and
/// execute spans (scoring and selection).
constexpr double kMaxUnattributed = 0.05;

enum class Kind { TfimDm, TfimHw, Toffoli };

Kind kind_of(const std::string& name) {
  if (name == "tfim_dm") return Kind::TfimDm;
  if (name == "tfim_hw") return Kind::TfimHw;
  return Kind::Toffoli;
}

/// One scored unit: a TFIM timestep, or the whole Toffoli battery.
struct UnitOut {
  int step = 0;
  double ideal_value = 0.0;  // TFIM noise-free reference magnetization
  double reference_metric = 0.0;
  std::size_t reference_cx = 0;
  std::vector<std::size_t> cnots;
  std::vector<double> hs;
  std::vector<double> metrics;
  std::size_t picked = 0;  // TFIM: minimal-HS pick; Toffoli: QFast default
  std::size_t best = 0;
};

struct FigureOut {
  std::vector<UnitOut> units;
  double harvest_s = 0.0, execute_s = 0.0, figure_s = 0.0;
  double cpu_s = 0.0;          // process CPU time over figure_s
  double peak_rss_mb = 0.0;    // peak resident set over figure_s
  std::vector<double> run_ms;  // wall time of every run in the batch
  std::vector<std::string> run_errors;
  double transpiled_cx = 0.0, bytes_computed = 0.0, cache_entries = 0.0;
  std::vector<std::string> shape_failures;
};

exec::RunRequest request(const qc::ir::QuantumCircuit& circuit,
                         const approx::ExecutionConfig& config) {
  exec::RunRequest r;
  r.circuit = circuit;
  r.config = config;
  return r;
}

double state_bytes(const exec::RunRecord& rec) {
  const double n = static_cast<double>(rec.active_physical.size());
  const bool density = rec.engine.rfind("dm:", 0) == 0;
  const double amplitudes = std::pow(2.0, density ? 2.0 * n : n);
  const double passes = rec.shots > 0 ? static_cast<double>(rec.shots) : 1.0;
  return 16.0 * amplitudes * static_cast<double>(rec.compiled_steps) * passes;
}

class BatchWorkload {
 public:
  // Synthesis is machine-aware, as in the figure benches: blocks on a line
  // embed swap-free into every catalog device.
  BatchWorkload(Kind kind, int variant)
      : kind_(kind), line_(qc::noise::CouplingMap::line(kind == Kind::Toffoli ? 4 : 3)) {
    const bool tfim = kind != Kind::Toffoli;
    const auto& device = driver::device(kind == Kind::TfimDm ? "toronto" : "manhattan");
    if (tfim) {
      study_.model.num_qubits = 3;
      study_.model.num_steps = 21;
      for (int s = 1; s <= study_.model.num_steps; ++s) study_.steps.push_back(s);
      study_.generator = approx::tfim_generator_preset(3);
      study_.generator.qsearch.seed += static_cast<std::uint64_t>(variant);
      if (kind == Kind::TfimHw) {
        study_.execution = approx::ExecutionConfig::hardware(device);
        study_.execution.shots = kHwShots;
      } else {
        study_.execution = approx::ExecutionConfig::simulator(device);
        study_.execution.shots = 2048;
      }
      study_.execution.seed = 11 + 1000003ull * static_cast<std::uint64_t>(variant);
      for (int step : study_.steps) {
        approx::GeneratorConfig gen = study_.generator;
        gen.qsearch.seed += static_cast<std::uint64_t>(step) * 101;
        gen.qfast.seed += static_cast<std::uint64_t>(step) * 103;
        gen.reducer.seed += static_cast<std::uint64_t>(step) * 107;
        units_.push_back({step, study_.model.circuit_up_to(step), gen});
      }
      metric_.kind = approx::MetricSpec::Kind::Magnetization;
    } else {
      approx::GeneratorConfig gen = approx::toffoli_generator_preset(4, false);
      gen.qsearch.seed += static_cast<std::uint64_t>(variant);
      gen.qfast.seed += static_cast<std::uint64_t>(variant);
      gen.reducer.seed += static_cast<std::uint64_t>(variant);
      units_.push_back({0, qc::algos::mct_reference_circuit(4), gen});
      battery_reference_ = qc::algos::mct_battery_circuit(4);
      battery_prefix_ = qc::algos::mct_battery_prefix(4);
      execution_ = approx::ExecutionConfig::simulator(device);
      execution_.shots = 2048;
      execution_.seed = 11 + 1000003ull * static_cast<std::uint64_t>(variant);
      metric_.kind = approx::MetricSpec::Kind::JsDistance;
      metric_.ideal_distribution = qc::algos::mct_battery_ideal_distribution(4);
    }
  }

  /// One cold figure: empty caches, harvest, execute, score.
  FigureOut run_figure() {
    exec::ExecutionEngine& engine = exec::ExecutionEngine::global();
    engine.clear_caches();
    qc::synth::clear_synth_cache();

    FigureOut fig;
    reset_peak_rss();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<qc::synth::ApproxCircuit>> clouds(units_.size());
    {
      obs::Span span("bench.harvest");
      qc::common::parallel_for(0, units_.size(), [&](std::size_t i) {
        clouds[i] =
            approx::generate_from_reference(units_[i].reference, units_[i].gen, &line_);
      });
    }
    const Clock::time_point t1 = Clock::now();
    std::vector<exec::RunResult> results;
    {
      obs::Span span("bench.execute");
      if (kind_ == Kind::Toffoli) wrap_battery(clouds[0]);
      results = engine.run_batch(build_requests(clouds));
    }
    const Clock::time_point t2 = Clock::now();
    {
      obs::Span span("bench.score");
      score(clouds, results, fig);
      check_shapes(fig);
    }
    const Clock::time_point t3 = Clock::now();
    fig.cpu_s = process_cpu_s() - cpu0;
    fig.peak_rss_mb = peak_rss_mb();
    fig.harvest_s = seconds_between(t0, t1);
    fig.execute_s = seconds_between(t1, t2);
    fig.figure_s = seconds_between(t0, t3);

    for (const exec::RunResult& r : results) {
      fig.run_ms.push_back(r.record.wall_ms);
      fig.transpiled_cx += static_cast<double>(r.record.transpiled_cx);
      if (r.status != exec::RunStatus::Ok) {
        fig.run_errors.push_back(r.record.error.empty() ? "run not ok" : r.record.error);
        continue;
      }
      fig.bytes_computed += state_bytes(r.record);
    }
    const exec::CacheSnapshot cs = engine.cache_stats_snapshot();
    fig.cache_entries = static_cast<double>(cs.transpile_entries + cs.model_entries +
                                            cs.compiled_entries + cs.matrix_entries);
    return fig;
  }

  /// Runs the library's own pipeline on the same inputs and counts every
  /// circuit whose output differs from the decomposed figure's.
  void library_check(const FigureOut& fig, Result& out) const {
    if (kind_ != Kind::Toffoli) {
      const approx::TfimStudyResult lib = approx::run_tfim_study(study_);
      for (std::size_t u = 0; u < units_.size(); ++u) {
        const UnitOut& mine = fig.units[u];
        const approx::TfimTimestepResult& ts = lib.timesteps.at(u);
        out.attempted += ts.scores.size() + 2;
        const bool header_ok = ts.ok() && ts.step == mine.step &&
                               ts.noise_free_reference == mine.ideal_value &&
                               ts.noisy_reference == mine.reference_metric &&
                               ts.reference_cnots == mine.reference_cx &&
                               ts.scores.size() == mine.metrics.size() &&
                               ts.minimal_hs == mine.picked && ts.best_output == mine.best;
        if (!header_ok) {
          out.fail("library check: step " + std::to_string(mine.step) + " differs from run_tfim_study",
                   ts.scores.size() + 2);
          continue;
        }
        for (std::size_t j = 0; j < ts.scores.size(); ++j)
          if (!same_score(ts.scores[j], mine, j))
            out.fail("library check: step " + std::to_string(mine.step) + " circuit " +
                     std::to_string(j) + " differs from run_tfim_study");
      }
    } else {
      const UnitOut& mine = fig.units.at(0);
      const approx::ScatterStudy lib = approx::run_scatter_study(
          battery_reference_, battery_, execution_, metric_);
      out.attempted += lib.scores.size() + 1;
      if (lib.reference_metric != mine.reference_metric ||
          lib.reference_cnots != mine.reference_cx || lib.scores.size() != mine.metrics.size()) {
        out.fail("library check: reference differs from run_scatter_study", lib.scores.size() + 1);
        return;
      }
      for (std::size_t j = 0; j < lib.scores.size(); ++j)
        if (!same_score(lib.scores[j], mine, j))
          out.fail("library check: circuit " + std::to_string(j) +
                   " differs from run_scatter_study");
    }
  }

 private:
  static bool same_score(const approx::CircuitScore& s, const UnitOut& mine, std::size_t j) {
    return s.cnot_count == mine.cnots[j] && s.hs_distance == mine.hs[j] &&
           (s.metric == mine.metrics[j] || (std::isnan(s.metric) && std::isnan(mine.metrics[j])));
  }

  /// Toffoli approximations are synthesized for the bare gate, then run
  /// behind the battery prefix (H on every control), as fig06 does.
  void wrap_battery(const std::vector<qc::synth::ApproxCircuit>& raw) {
    battery_.clear();
    qfast_default_ = 0;
    double best_qfast_hs = 2.0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      qc::synth::ApproxCircuit wrapped = raw[i];
      qc::ir::QuantumCircuit battery = battery_prefix_;
      battery.append(wrapped.circuit);
      wrapped.circuit = std::move(battery);
      if (raw[i].source == "qfast" && raw[i].hs_distance < best_qfast_hs) {
        best_qfast_hs = raw[i].hs_distance;
        qfast_default_ = i;
      }
      battery_.push_back(std::move(wrapped));
    }
  }

  /// Same slot seeds as run_tfim_study / run_scatter_study: the noisy
  /// reference at seed + step * 7919, approximation i at that + 7919 (i + 1).
  std::vector<exec::RunRequest> build_requests(
      const std::vector<std::vector<qc::synth::ApproxCircuit>>& clouds) const {
    std::vector<exec::RunRequest> requests;
    if (kind_ == Kind::Toffoli) {
      requests.push_back(request(battery_reference_, execution_));
      for (std::size_t i = 0; i < battery_.size(); ++i) {
        approx::ExecutionConfig cfg = execution_;
        cfg.seed = execution_.seed + 7919 * (i + 1);
        requests.push_back(request(battery_[i].circuit, cfg));
      }
      return requests;
    }
    for (std::size_t u = 0; u < units_.size(); ++u) {
      approx::ExecutionConfig ideal = study_.execution;
      ideal.ideal = true;
      requests.push_back(request(units_[u].reference, ideal));
      approx::ExecutionConfig noisy = study_.execution;
      noisy.seed = study_.execution.seed + static_cast<std::uint64_t>(units_[u].step) * 7919;
      requests.push_back(request(units_[u].reference, noisy));
      for (std::size_t i = 0; i < clouds[u].size(); ++i) {
        approx::ExecutionConfig cfg = noisy;
        cfg.seed = noisy.seed + 7919 * (i + 1);
        requests.push_back(request(clouds[u][i].circuit, cfg));
      }
    }
    return requests;
  }

  void score(const std::vector<std::vector<qc::synth::ApproxCircuit>>& clouds,
             const std::vector<exec::RunResult>& results, FigureOut& fig) const {
    std::size_t slot = 0;
    for (std::size_t u = 0; u < units_.size(); ++u) {
      const std::vector<qc::synth::ApproxCircuit>& cloud =
          kind_ == Kind::Toffoli ? battery_ : clouds[u];
      UnitOut unit;
      unit.step = units_[u].step;
      if (kind_ != Kind::Toffoli)
        unit.ideal_value = qc::sim::average_z_magnetization(results[slot++].probabilities);
      const exec::RunResult& ref = results[slot++];
      unit.reference_metric = approx::score_distribution(ref.probabilities, metric_);
      unit.reference_cx = ref.record.transpiled_cx;
      std::vector<approx::CircuitScore> scores(cloud.size());
      for (std::size_t i = 0; i < cloud.size(); ++i) {
        const exec::RunResult& r = results[slot++];
        approx::CircuitScore& s = scores[i];
        s.index = i;
        s.cnot_count = cloud[i].cnot_count;
        s.hs_distance = cloud[i].hs_distance;
        s.metric = r.status == exec::RunStatus::Failed
                       ? std::nan("")
                       : approx::score_distribution(r.probabilities, metric_);
        unit.cnots.push_back(s.cnot_count);
        unit.hs.push_back(s.hs_distance);
        unit.metrics.push_back(s.metric);
      }
      if (kind_ == Kind::Toffoli) {
        unit.picked = qfast_default_;
        unit.best = approx::best_by_min(scores);
      } else {
        unit.picked = approx::minimal_hs_index(cloud);
        unit.best = approx::best_by_target_value(scores, unit.ideal_value);
      }
      fig.units.push_back(std::move(unit));
    }
  }

  /// The SHAPE claims the figure binaries assert, on this figure.
  void check_shapes(FigureOut& fig) const {
    if (kind_ == Kind::Toffoli) {
      const UnitOut& u = fig.units.at(0);
      if (u.metrics.empty()) {
        fig.shape_failures.push_back("fig06: empty harvest");
        return;
      }
      if (!(u.metrics[u.best] < u.reference_metric))
        fig.shape_failures.push_back("fig06: no approximation beats the Qiskit reference");
      if (u.cnots[u.best] > 12)
        fig.shape_failures.push_back("fig06: the best approximation is not low-depth");
      return;
    }
    std::size_t beats = 0, total = 0, min_cx = 1000, max_cx = 0;
    for (const UnitOut& u : fig.units) {
      const double ref_err = std::abs(u.reference_metric - u.ideal_value);
      for (std::size_t i = 0; i < u.metrics.size(); ++i) {
        ++total;
        if (std::abs(u.metrics[i] - u.ideal_value) < ref_err) ++beats;
        min_cx = std::min(min_cx, u.cnots[i]);
        max_cx = std::max(max_cx, u.cnots[i]);
      }
    }
    const double frac = total ? static_cast<double>(beats) / static_cast<double>(total) : 0.0;
    if (kind_ == Kind::TfimDm) {
      if (!(frac > 0.6))
        fig.shape_failures.push_back("fig03: approximations beating the noisy reference <= 60%");
      if (!(min_cx <= 2 && max_cx >= 5))
        fig.shape_failures.push_back("fig03: cloud does not span shallow-to-deep CNOT counts");
    } else if (!(frac > 0.7)) {
      fig.shape_failures.push_back("fig12: approximations beating the hardware reference <= 70%");
    }
  }

  Kind kind_;
  qc::noise::CouplingMap line_;
  approx::TfimStudyConfig study_;       // TFIM workloads
  struct UnitIn {
    int step;
    qc::ir::QuantumCircuit reference;
    approx::GeneratorConfig gen;
  };
  std::vector<UnitIn> units_;
  approx::MetricSpec metric_;
  // Toffoli workload.
  qc::ir::QuantumCircuit battery_reference_;
  qc::ir::QuantumCircuit battery_prefix_;
  approx::ExecutionConfig execution_;
  std::vector<qc::synth::ApproxCircuit> battery_;
  std::size_t qfast_default_ = 0;
};

// ---- recorded references ---------------------------------------------------

json::Value digest(const UnitOut& u) {
  json::Value d = json::Value::object();
  double sum = 0.0, lo = INFINITY, hi = -INFINITY;
  std::size_t cnots = 0;
  for (std::size_t i = 0; i < u.metrics.size(); ++i) {
    sum += u.metrics[i];
    lo = std::min(lo, u.metrics[i]);
    hi = std::max(hi, u.metrics[i]);
    cnots += u.cnots[i];
  }
  const double n = static_cast<double>(u.metrics.size());
  d.set("step", u.step);
  d.set("n", u.metrics.size());
  d.set("cnots", cnots);
  d.set("ref_cx", u.reference_cx);
  d.set("ideal", u.ideal_value);
  d.set("ref", u.reference_metric);
  d.set("mean", n > 0 ? sum / n : 0.0);
  d.set("min", u.metrics.empty() ? 0.0 : lo);
  d.set("max", u.metrics.empty() ? 0.0 : hi);
  d.set("picked", u.metrics.empty() ? 0.0 : u.metrics[u.picked]);
  d.set("best", u.metrics.empty() ? 0.0 : u.metrics[u.best]);
  return d;
}

/// Compares one unit against its recorded digest; returns the first
/// mismatching field ("" when everything matches).
std::string compare_digest(const json::Value& want, const UnitOut& u) {
  const json::Value got = digest(u);
  for (const char* key : {"step", "n", "cnots", "ref_cx"})
    if (got.get_number(key, -1) != want.get_number(key, -2)) return key;
  for (const char* key : {"ideal", "ref", "mean", "min", "max", "picked", "best"}) {
    const double a = got.get_number(key, NAN), b = want.get_number(key, NAN);
    const double tol = kExactTol * std::max(1.0, std::abs(b));
    if (!(std::abs(a - b) <= tol))
      return std::string(key) + " " + std::to_string(a) + " vs recorded " + std::to_string(b);
  }
  return "";
}

std::size_t unit_ops(const UnitOut& u, Kind kind) {
  return u.metrics.size() + (kind == Kind::Toffoli ? 1 : 2);
}

/// Output checks of one figure: run failures, SHAPE claims, recorded digests.
void check_figure(const FigureOut& fig, const json::Value& want, Kind kind,
                  const std::string& tag, Result& out) {
  std::size_t ops = 0;
  for (const UnitOut& u : fig.units) ops += unit_ops(u, kind);
  out.attempted += ops;
  for (const std::string& e : fig.run_errors) out.fail(tag + " run failed: " + e);
  for (const std::string& s : fig.shape_failures) out.fail(tag + " SHAPE FAIL " + s);
  const json::Value::Array& units = want.as_array();
  if (units.size() != fig.units.size()) {
    out.fail(tag + " unit count differs from reference.json", ops);
    return;
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::string why = compare_digest(units[i], fig.units[i]);
    if (!why.empty())
      out.fail(tag + " step " + std::to_string(fig.units[i].step) + ": " + why,
               unit_ops(fig.units[i], kind));
  }
}

json::Value digests(const FigureOut& fig) {
  json::Value a = json::Value::array();
  for (const UnitOut& u : fig.units) a.push_back(digest(u));
  return a;
}

/// Count-type registry keys that must repeat exactly between figures at one
/// seed (the accounting check).
bool is_repeatable_count(const std::string& key) {
  for (const char* p : {"synth.qsearch.nodes_expanded", "exec.runs", "exec.run_ns.count",
                        "sim.kernel.", "exec.cache.", "sim.compile.steps",
                        "sim.trajectory_shots", "approx.generator_failures"})
    if (key.rfind(p, 0) == 0) return true;
  return false;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return name == "tfim_dm" || name == "tfim_hw" || name == "toffoli_dm";
}

void run_batch_workload(const Options& opts, Result& out) {
  const Kind kind = kind_of(opts.workload);
  const int variant = static_cast<int>(opts.seed % kVariants);

  // ---- setup: runtime, pool, devices, inputs, recorded outputs.
  driver::init_runtime();
  const std::size_t workers = qc::common::ThreadPool::global().size();
  exec::ExecutionEngine::global();
  BatchWorkload workload(kind, variant);
  const json::Value reference = json::parse(read_file(opts.reference_path));
  const json::Value* want_ptr = reference.find(opts.workload);
  if (want_ptr == nullptr) throw std::runtime_error("reference.json lacks " + opts.workload);
  const json::Value want = want_ptr->as_array().at(static_cast<std::size_t>(variant));
  announce_ready();
  if (opts.setup_only) return;

  // ---- timed repeats. With --trace, repeats alternate traced (timing and
  // spans on, registry deltas kept) and untraced, starting traced.
  std::vector<double> figure_s, traced_s, harvest_s, execute_s, unattributed_s;
  std::vector<double> cpu_ms_per_op, rss_mb, run_p50_ms, run_p99_ms;  // per untraced figure
  std::size_t runs = 0;
  double transpiled_cx = 0.0, bytes = 0.0, cache_entries = 0.0;
  Counts layers, first_counts;
  bool counts_repeat = true;
  const Clock::time_point start = Clock::now();
  std::optional<FigureOut> last;
  for (int rep = 0;; ++rep) {
    const double elapsed = seconds_between(start, Clock::now());
    const double estimate = rep > 0 ? elapsed / static_cast<double>(rep) : 0.0;
    if (opts.repeats > 0 ? rep >= opts.repeats
                         : rep >= kMinRepeats && elapsed + estimate > opts.seconds)
      break;
    const bool traced = opts.trace && rep % 2 == 0;
    Counts before;
    if (traced) {
      obs::set_timing_enabled(true);
      obs::reset_trace();
      obs::enable_tracing();
      before = registry_counts();
    }
    FigureOut fig = workload.run_figure();
    if (traced) {
      const Counts d = delta(registry_counts(), before);
      obs::disable_tracing();
      obs::set_timing_enabled(false);
      accumulate(layers, d);
      Counts counts;
      for (const auto& [k, v] : d)
        if (is_repeatable_count(k)) counts[k] = v;
      if (first_counts.empty()) {
        first_counts = counts;
      } else if (counts != first_counts) {
        counts_repeat = false;
      }
      traced_s.push_back(fig.figure_s);
      harvest_s.push_back(fig.harvest_s);
      execute_s.push_back(fig.execute_s);
      unattributed_s.push_back(fig.figure_s - fig.harvest_s - fig.execute_s);
      transpiled_cx = fig.transpiled_cx;
      bytes = fig.bytes_computed;
      cache_entries = fig.cache_entries;
    } else {
      figure_s.push_back(fig.figure_s);
    }
    check_figure(fig, want, kind, opts.workload + " repeat " + std::to_string(rep), out);
    std::size_t ops = 0;
    for (const UnitOut& u : fig.units) ops += unit_ops(u, kind);
    if (!traced) {
      cpu_ms_per_op.push_back(fig.cpu_s * 1e3 /
                              static_cast<double>(std::max<std::size_t>(1, ops)));
      rss_mb.push_back(fig.peak_rss_mb);
      run_p50_ms.push_back(percentile(fig.run_ms, 0.50));
      run_p99_ms.push_back(percentile(fig.run_ms, 0.99));
    }
    runs += fig.run_ms.size();
    last = std::move(fig);
  }
  if (opts.trace && !qc::obs::write_chrome_trace("trace.json"))
    out.notes.push_back("could not write trace.json");

  // ---- untimed, in the traced run: the library pipeline must produce the
  // same outputs as the decomposed figure (untraced runs check the recorded
  // digests only, which keeps a run within its time on a loaded host).
  if (opts.trace && opts.repeats == 0 && last) workload.library_check(*last, out);

  if (!opts.trace) {
    // Medians over the run's figures: a burst of load, or an allocator
    // that now and then holds on to more memory, moves one figure, not the run.
    out.metric("cpu_ms_per_op", median(cpu_ms_per_op), "ms");
    out.metric("peak_rss_mb", median(rss_mb), "MB");
    out.notes.push_back(std::to_string(figure_s.size()) + " figures, " +
                        std::to_string(runs) + " circuit runs");
    return;
  }

  const double fig_traced = median(traced_s);
  const double unattributed = median(unattributed_s);
  out.metric("approx.harvest_s", median(harvest_s), "s");
  out.metric("approx.execute_s", median(execute_s), "s");
  out.metric("approx.unattributed_s", unattributed, "s");
  out.metric("approx.unattributed_frac", fig_traced > 0 ? unattributed / fig_traced : 0.0,
             "ratio");
  out.metric("trace.figure_s", fig_traced, "s");
  out.metric("trace.overhead_s", figure_s.empty() ? 0.0 : fig_traced - median(figure_s), "s");
  // Wall-clock figures of the untraced repeats: what a user waits for, but
  // too dependent on the host's other tenants to bound (README, "Noise on a
  // shared host").
  out.metric("wall.figure_s", median(figure_s), "s");
  out.metric("wall.latency_p50_ms", median(run_p50_ms), "ms");
  out.metric("wall.latency_p99_ms", median(run_p99_ms), "ms");
  double traced_wall = 0.0;
  for (double s : traced_s) traced_wall += s;
  MeasuredLayers measured;
  measured.transpiled_cx = transpiled_cx;
  measured.bytes_computed = bytes;
  measured.cache_entries = cache_entries;
  measured.wall_s = traced_wall;
  measured.workers = workers;
  measured.units = static_cast<double>(traced_s.size());
  add_layer_metrics(out, layers, measured);
  out.metric("check.counts_repeat", counts_repeat ? 1.0 : 0.0, "bool");

  // ---- accounting checks, each one operation of the run.
  out.attempted += 2;
  if (!counts_repeat) out.fail("accounting: per-layer counts differ between traced figures");
  if (!(unattributed <= kMaxUnattributed * fig_traced))
    out.fail("accounting: unattributed time above 5% of traced figure_s");
}

void record_references(const Options& opts) {
  driver::init_runtime();
  json::Value all = json::Value::object();
  for (const char* name : {"tfim_dm", "tfim_hw", "toffoli_dm"}) {
    json::Value variants = json::Value::array();
    for (int v = 0; v < kVariants; ++v) {
      BatchWorkload workload(kind_of(name), v);
      const FigureOut fig = workload.run_figure();
      for (const std::string& s : fig.shape_failures)
        std::fprintf(stderr, "%s variant %d: SHAPE FAIL %s\n", name, v, s.c_str());
      for (const std::string& e : fig.run_errors)
        std::fprintf(stderr, "%s variant %d: run failed: %s\n", name, v, e.c_str());
      std::fprintf(stderr, "%s variant %d: %.2f s\n", name, v, fig.figure_s);
      variants.push_back(digests(fig));
    }
    all.set(name, std::move(variants));
  }
  write_file(opts.record_path, all.dump() + "\n");
}

}  // namespace perfbench
