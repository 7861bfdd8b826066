#include "obs/metrics.hpp"

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/rolling.hpp"

namespace qc::obs {

namespace detail {
std::atomic<bool> g_timing_enabled{false};
}  // namespace detail

void set_timing_enabled(bool enabled) {
  detail::g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

namespace {

/// Name -> instrument maps. unique_ptr entries give the returned references
/// process-lifetime stability; leaked so worker threads of static-duration
/// pools can still update instruments during static destruction.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

template <typename T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                  std::mutex& mu, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  return *it->second;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& r = registry();
  return find_or_create(r.counters, r.mu, name);
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  return find_or_create(r.gauges, r.mu, name);
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  return find_or_create(r.histograms, r.mu, name);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    snap.counters.reserve(r.counters.size());
    for (const auto& [name, c] : r.counters)
      snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(r.gauges.size());
    for (const auto& [name, g] : r.gauges) snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(r.histograms.size());
    for (const auto& [name, h] : r.histograms) {
      MetricsSnapshot::Hist hist;
      hist.name = name;
      hist.count = h->count();
      hist.sum = h->sum();
      for (int b = 0; b < Histogram::kNumBuckets; ++b)
        if (const std::uint64_t n = h->bucket(b)) hist.buckets.emplace_back(b, n);
      snap.histograms.push_back(std::move(hist));
    }
  }
  // Rolling histograms live in their own registry (obs/rolling.cpp); the
  // summary (not raw buckets) rides in the shared snapshot so every exporter
  // — JSON file, wire `metrics` request, Prometheus text — sees them.
  for (auto& [name, rs] : rolling_snapshots()) {
    MetricsSnapshot::Rolling roll;
    roll.name = name;
    roll.count = rs.count;
    roll.sum = rs.sum;
    roll.total_count = rs.total_count;
    roll.total_sum = rs.total_sum;
    roll.window_ns = rs.window_ns;
    roll.num_windows = rs.num_windows;
    roll.covered_seconds = rs.covered_seconds;
    roll.rate_per_second = rs.rate_per_second();
    roll.p50 = rs.percentile(0.50);
    roll.p90 = rs.percentile(0.90);
    roll.p95 = rs.percentile(0.95);
    roll.p99 = rs.percentile(0.99);
    snap.rollings.push_back(std::move(roll));
  }
  return snap;
}

std::string metrics_json() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) os << ",";
    os << detail::json_string(snap.counters[i].first) << ":"
       << snap.counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) os << ",";
    os << detail::json_string(snap.gauges[i].first) << ":" << snap.gauges[i].second;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i) os << ",";
    os << detail::json_string(h.name) << ":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"buckets\":{";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) os << ",";
      os << "\"" << h.buckets[b].first << "\":" << h.buckets[b].second;
    }
    os << "}}";
  }
  os << "},\"rolling\":{";
  for (std::size_t i = 0; i < snap.rollings.size(); ++i) {
    const auto& roll = snap.rollings[i];
    if (i) os << ",";
    os << detail::json_string(roll.name) << ":{\"count\":" << roll.count
       << ",\"sum\":" << roll.sum << ",\"total_count\":" << roll.total_count
       << ",\"total_sum\":" << roll.total_sum
       << ",\"window_ms\":" << detail::json_number(
              static_cast<double>(roll.window_ns) / 1e6)
       << ",\"windows\":" << roll.num_windows
       << ",\"covered_s\":" << detail::json_number(roll.covered_seconds)
       << ",\"rate\":" << detail::json_number(roll.rate_per_second)
       << ",\"p50\":" << detail::json_number(roll.p50)
       << ",\"p90\":" << detail::json_number(roll.p90)
       << ",\"p95\":" << detail::json_number(roll.p95)
       << ",\"p99\":" << detail::json_number(roll.p99) << "}";
  }
  os << "}}";
  return os.str();
}

namespace {

/// `exec.cache.transpile.hits` -> `qapprox_exec_cache_transpile_hits`;
/// `serve.job.latency_ns.tenant.team-a` -> base `qapprox_serve_job_latency_ns`
/// with label `tenant="team-a"` (same for `.kind.`). Everything else is
/// sanitized verbatim — the exposition format allows only [a-zA-Z0-9_:].
struct PromName {
  std::string name;
  std::string labels;  // rendered `{k="v"}` or empty
};

PromName prometheus_name(const std::string& raw) {
  PromName out;
  std::string base = raw;
  for (const char* marker : {".kind.", ".tenant."}) {
    const std::size_t at = base.find(marker);
    if (at == std::string::npos) continue;
    const std::string key(marker + 1, std::string(marker).size() - 2);
    std::string value = base.substr(at + std::string(marker).size());
    base = base.substr(0, at);
    std::string escaped;
    for (const char c : value)
      if (c == '"' || c == '\\') {
        escaped += '\\';
        escaped += c;
      } else if (c == '\n') {
        escaped += "\\n";
      } else {
        escaped += c;
      }
    if (!out.labels.empty()) out.labels += ",";
    out.labels += key + "=\"" + escaped + "\"";
  }
  out.name = "qapprox_";
  for (const char c : base)
    out.name += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  return out;
}

void prom_type_line(std::ostringstream& os, const std::string& name,
                    const char* type,
                    std::vector<std::string>& typed) {
  // One TYPE line per metric family even when labels split it into several
  // sample lines (the exposition format forbids duplicates).
  for (const std::string& seen : typed)
    if (seen == name) return;
  typed.push_back(name);
  os << "# TYPE " << name << " " << type << "\n";
}

std::string prom_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string metrics_prometheus() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::ostringstream os;
  std::vector<std::string> typed;
  os << "# HELP qapprox_build_info build stamp (value is always 1)\n"
     << "# TYPE qapprox_build_info gauge\n"
     << "qapprox_build_info{build=\"" << build_info_summary() << "\"} 1\n";
  for (const auto& [name, v] : snap.counters) {
    const PromName p = prometheus_name(name);
    prom_type_line(os, p.name, "counter", typed);
    os << p.name;
    if (!p.labels.empty()) os << "{" << p.labels << "}";
    os << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const PromName p = prometheus_name(name);
    prom_type_line(os, p.name, "gauge", typed);
    os << p.name;
    if (!p.labels.empty()) os << "{" << p.labels << "}";
    os << " " << v << "\n";
  }
  for (const auto& h : snap.histograms) {
    const PromName p = prometheus_name(h.name);
    prom_type_line(os, p.name, "summary", typed);
    const std::string braces = p.labels.empty() ? "" : "{" + p.labels + "}";
    os << p.name << "_sum" << braces << " " << h.sum << "\n";
    os << p.name << "_count" << braces << " " << h.count << "\n";
  }
  for (const auto& roll : snap.rollings) {
    const PromName p = prometheus_name(roll.name);
    prom_type_line(os, p.name, "summary", typed);
    const auto quantile = [&](const char* q, double v) {
      os << p.name << "{";
      if (!p.labels.empty()) os << p.labels << ",";
      os << "quantile=\"" << q << "\"} " << prom_double(v) << "\n";
    };
    quantile("0.5", roll.p50);
    quantile("0.9", roll.p90);
    quantile("0.95", roll.p95);
    quantile("0.99", roll.p99);
    const std::string braces = p.labels.empty() ? "" : "{" + p.labels + "}";
    // The monotonic totals, not the window counts: Prometheus rate() needs
    // non-decreasing series; the windowed view lives in the quantiles.
    os << p.name << "_sum" << braces << " " << roll.total_sum << "\n";
    os << p.name << "_count" << braces << " " << roll.total_count << "\n";
  }
  return os.str();
}

bool write_metrics_json(const std::string& path) {
  const std::string json =
      "{\"build\":" + build_info_json() + ",\"metrics\":" + metrics_json() + "}";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    QC_LOG_ERROR("obs", "cannot write metrics to %s", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    QC_LOG_ERROR("obs", "short write to metrics file %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace qc::obs
