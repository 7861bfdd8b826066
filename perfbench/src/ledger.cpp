#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <time.h>

#include "obs/metrics.hpp"

namespace perfbench {

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::fail(const std::string& what, std::uint64_t ops) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(what);
}

std::string Result::json() const {
  json::Value out = json::Value::object();
  out.set("attempted", attempted);
  out.set("failed", failed);
  json::Value m = json::Value::object();
  for (const auto& [name, vu] : metrics) {
    json::Value entry = json::Value::object();
    entry.set("value", vu.first);
    entry.set("unit", vu.second);
    m.set(name, std::move(entry));
  }
  out.set("metrics", std::move(m));
  json::Value f = json::Value::array();
  for (const std::string& s : failures) f.push_back(s);
  out.set("failures", std::move(f));
  json::Value n = json::Value::array();
  for (const std::string& s : notes) n.push_back(s);
  out.set("notes", std::move(n));
  return out.dump();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Counts registry_counts() {
  const qc::obs::MetricsSnapshot snap = qc::obs::metrics_snapshot();
  Counts c;
  for (const auto& [name, v] : snap.counters) c[name] = static_cast<double>(v);
  for (const auto& [name, v] : snap.gauges) c[name] = static_cast<double>(v);
  for (const auto& h : snap.histograms) {
    c[h.name + ".sum"] = static_cast<double>(h.sum);
    c[h.name + ".count"] = static_cast<double>(h.count);
  }
  return c;
}

Counts counts_from_json(const json::Value& metrics) {
  Counts c;
  for (const char* section : {"counters", "gauges"})
    if (const json::Value* s = metrics.find(section))
      for (const auto& [name, v] : s->members()) c[name] = v.as_number();
  if (const json::Value* hists = metrics.find("histograms"))
    for (const auto& [name, h] : hists->members()) {
      c[name + ".sum"] = h.get_number("sum", 0.0);
      c[name + ".count"] = h.get_number("count", 0.0);
    }
  return c;
}

Counts delta(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [k, v] : after) d[k] = v - get(before, k);
  return d;
}

void accumulate(Counts& into, const Counts& add) {
  for (const auto& [k, v] : add) into[k] += v;
}

double get(const Counts& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double hit_rate(const Counts& d, const std::string& prefix) {
  const double hits = get(d, prefix + ".hits");
  return ratio(hits, hits + get(d, prefix + ".misses"));
}

double busy_s(const Counts& d, const std::string& hist) {
  return get(d, hist + ".sum") / 1e9;
}

}  // namespace

void add_layer_metrics(Result& out, const Counts& d, const MeasuredLayers& measured) {
  const double u = measured.units > 0.0 ? measured.units : 1.0;

  // synth: search busy time, work done, retries, cache and partition reuse.
  out.metric("synth.qsearch_busy_s", busy_s(d, "synth.qsearch_ns") / u, "s");
  out.metric("synth.qfactor_busy_s", busy_s(d, "synth.qfactor_ns") / u, "s");
  out.metric("synth.gradient_busy_s", busy_s(d, "synth.gradient_ns") / u, "s");
  out.metric("synth.partition_busy_s", busy_s(d, "synth.partition_ns") / u, "s");
  out.metric("synth.qsearch.nodes_expanded",
             get(d, "synth.qsearch.nodes_expanded") / u, "count");
  out.metric("synth.retries", get(d, "approx.generator_failures") / u, "count");
  out.metric("synth.cache.hit_rate", hit_rate(d, "synth.cache"), "ratio");
  const double dedupe = get(d, "synth.partition.dedupe_hits");
  out.metric("synth.partition.dedupe_rate",
             ratio(dedupe, dedupe + get(d, "synth.partition.unique_blocks")), "ratio");

  // transpile: every pass histogram, the layout pass alone, CX produced.
  double transpile_ns = 0.0;
  for (const auto& [k, v] : d)
    if (k.rfind("transpile.", 0) == 0 && k.size() > 7 &&
        k.compare(k.size() - 7, 7, "_ns.sum") == 0)
      transpile_ns += v;
  out.metric("transpile.busy_s", transpile_ns / 1e9 / u, "s");
  out.metric("transpile.layout_busy_s", busy_s(d, "transpile.layout_ns") / u, "s");
  out.metric("transpile.cx_total", measured.transpiled_cx, "count");

  // exec: per-run time outside the four timed phases, caches, failures.
  const double runs = get(d, "exec.run_ns.count");
  const double phases_ns = get(d, "exec.transpile_ns.sum") + get(d, "exec.model_ns.sum") +
                           get(d, "exec.compile_ns.sum") + get(d, "exec.evolve_ns.sum");
  out.metric("exec.runs", get(d, "exec.runs") / u, "count");
  out.metric("exec.overhead_us_per_run",
             ratio(get(d, "exec.run_ns.sum") - phases_ns, runs) / 1e3, "us");
  for (const char* cache : {"transpile", "model", "compiled", "matrix"})
    out.metric(std::string("exec.cache.") + cache + ".hit_rate",
               hit_rate(d, std::string("exec.cache.") + cache), "ratio");
  out.metric("exec.cache.entries", measured.cache_entries, "count");
  out.metric("exec.runs_failed", get(d, "exec.runs_failed") / u, "count");

  // sim: compile and evolve busy time, trajectory throughput, program size.
  const double evolve_s = busy_s(d, "exec.evolve_ns");
  out.metric("sim.compile_busy_s", busy_s(d, "sim.compile_ns") / u, "s");
  out.metric("sim.evolve_busy_s", evolve_s / u, "s");
  out.metric("sim.shots_per_s", ratio(get(d, "sim.trajectory_shots"), evolve_s), "1/s");
  out.metric("sim.compiled_steps", get(d, "sim.compile.steps") / u, "count");

  // linalg: program steps per kernel class (one count per run, not per shot)
  // and the state bytes those steps sweep (computed, not measured).
  for (const char* k : {"1q_diag", "1q_general", "2q_diag", "2q_perm_phase", "2q_general",
                        "3q_diag", "3q_general", "4q_diag", "4q_general", "generic"})
    out.metric(std::string("linalg.kernel_calls.") + k,
               get(d, std::string("sim.kernel.") + k) / u, "count");
  out.metric("linalg.bytes_computed", measured.bytes_computed, "bytes");

  // pool: worker busy time over the capacity the wall time offered. The
  // per-worker counters time top-level tasks only; pool.busy_ns also times
  // tasks a thread runs while waiting inside a nested parallel_for, which
  // counts that time twice.
  double worker_busy_ns = 0.0;
  for (const auto& [k, v] : d)
    if (k.rfind("pool.worker.", 0) == 0 && k.size() > 8 &&
        k.compare(k.size() - 8, 8, ".busy_ns") == 0)
      worker_busy_ns += v;
  out.metric("pool.utilization",
             ratio(worker_busy_ns / 1e9, measured.wall_s * static_cast<double>(measured.workers)),
             "ratio");
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void announce_ready() {
  std::printf("{\"ready\": true, \"cpu_s\": %.9f}\n", process_cpu_s());
  std::fflush(stdout);
}

}  // namespace perfbench
