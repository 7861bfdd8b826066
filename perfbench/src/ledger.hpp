// Shared plumbing of the end-to-end benchmark binary: run options, the result
// record every workload fills, registry deltas, and the per-layer metric
// mapping shared by the batch and serve workloads.
//
// Per-layer numbers are deltas of the program's own counters and duration
// histograms (obs::metrics_snapshot, or the `metrics` tree of a serve `stats`
// reply). Busy times are histogram sums: time summed over every thread that
// did the work, not wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace json = qc::common::json;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// > 0: run exactly this many figure repeats instead of filling --seconds
  /// (the 1-thread scaling run).
  int repeats = 0;
  std::string reference_path = "reference.json";
  /// Non-empty: record the reference outputs of every input variant here.
  std::string record_path;
  /// serve_mix arrival rate; the default is the recorded one (README,
  /// "Load shape"). Other rates are for measuring the saturation rate.
  double rate_per_s = 200.0;
};

/// What one workload run reports. Metrics keep insertion order.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts `ops` failed operations, keeping the description if there is room.
  void fail(const std::string& what, std::uint64_t ops = 1);
  std::string json() const;
};

double seconds_between(Clock::time_point a, Clock::time_point b);
/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Peak resident set (VmHWM) since process start or the last
/// reset_peak_rss().
double peak_rss_mb();
/// Returns the heap's free memory to the system (glibc malloc_trim) and
/// restarts the peak resident set from what remains (Linux
/// /proc/self/clear_refs); without it, the peak stays process-wide.
void reset_peak_rss();
/// CPU time (user + system, every thread) this process has used so far. It
/// leaves out the time the process waits, for a CPU the host's other tenants
/// hold or for another thread, which wall time on a shared host does not;
/// it still counts a CPU running slower because a neighbour shares its core.
double process_cpu_s();

/// Flat copy of the registry: counters and gauges by name, histograms as
/// "<name>.sum" / "<name>.count".
using Counts = std::map<std::string, double>;
Counts registry_counts();
/// Same shape from the JSON form (a serve `stats` reply's "metrics" tree).
Counts counts_from_json(const json::Value& metrics);
/// after - before, key by key (keys only in `after` count from zero).
Counts delta(const Counts& after, const Counts& before);
void accumulate(Counts& into, const Counts& add);
double get(const Counts& c, const std::string& key);

/// Values the workload measures itself, per figure (batch) or per run (serve).
struct MeasuredLayers {
  double transpiled_cx = 0.0;     // sum over runs of transpiled CX
  double bytes_computed = 0.0;    // see README: computed from state sizes
  double cache_entries = 0.0;     // engine cache entries after the work
  double wall_s = 0.0;            // wall time the registry delta covers
  std::size_t workers = 1;        // pool workers behind busy times
  double units = 1.0;             // registry deltas are divided by this
};

/// Emits the per-layer metrics derived from a registry delta (synth,
/// transpile, exec, sim, linalg, pool) in a fixed order and with fixed
/// names; layers the workload does not exercise read 0.
void add_layer_metrics(Result& out, const Counts& d, const MeasuredLayers& measured);

/// Writes `text` to `path`; throws on failure.
void write_file(const std::string& path, const std::string& text);
std::string read_file(const std::string& path);

/// Prints the setup-complete marker with the CPU time used to reach it;
/// run.py also times the wall time from spawn to this line.
void announce_ready();

}  // namespace perfbench
