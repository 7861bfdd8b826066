#include "obs/obs.hpp"

#include <cstdlib>
#include <mutex>
#include <string>

namespace qc::obs {

namespace {

std::string& trace_path_storage() {
  static std::string* p = new std::string;
  return *p;
}

std::string& metrics_path_storage() {
  static std::string* p = new std::string;
  return *p;
}

void export_at_exit() {
  if (!trace_path_storage().empty()) write_chrome_trace(trace_path_storage());
  if (!metrics_path_storage().empty()) write_metrics_json(metrics_path_storage());
}

}  // namespace

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* lvl = std::getenv("QAPPROX_LOG"))
      set_log_level(parse_log_level(lvl, log_level()));
    const char* trace = std::getenv("QAPPROX_TRACE");
    const char* metrics = std::getenv("QAPPROX_METRICS");
    if (trace != nullptr && *trace != '\0') {
      trace_path_storage() = trace;
      enable_tracing();
      set_timing_enabled(true);  // traces imply duration histograms too
    }
    if (metrics != nullptr && *metrics != '\0') {
      metrics_path_storage() = metrics;
      set_timing_enabled(true);
    }
    // Registered during static initialization (this TU's bootstrap below) or
    // on the first cold-path construction — either way before any
    // static-duration thread pool is created, so the handler runs *after*
    // those pools have joined their workers.
    if (!trace_path_storage().empty() || !metrics_path_storage().empty())
      std::atexit(export_at_exit);
    QC_LOG_DEBUG("obs", "init: trace=%s metrics=%s log=%s",
                 trace_path_storage().empty() ? "-" : trace_path_storage().c_str(),
                 metrics_path_storage().empty() ? "-"
                                                : metrics_path_storage().c_str(),
                 log_level_name(log_level()));
  });
}

const std::string& metrics_export_path() { return metrics_path_storage(); }

void flush_exports() { export_at_exit(); }

namespace {
/// Applies the environment as early as possible for binaries that link this
/// TU; cold constructors re-invoke init_from_env() as a fallback for link
/// orders that drop it.
struct EnvBootstrap {
  EnvBootstrap() { init_from_env(); }
} g_bootstrap;
}  // namespace

}  // namespace qc::obs
