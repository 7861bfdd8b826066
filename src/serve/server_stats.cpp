// The stats and metrics request payloads. Process-wide counters live in the
// metrics registry (obs), which both payloads carry whole under "metrics";
// the stats payload adds the server's own request counters, live depths and
// cache sizes beside it, never a hand-picked copy of registry counters.
#include "serve/server.hpp"

#include <chrono>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/driver.hpp"
#include "common/faults.hpp"
#include "linalg/kernels.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"

namespace qc::serve {

namespace json = common::json;
namespace driver = common::driver;

namespace {

double uptime_ms(std::chrono::steady_clock::time_point started_at) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - started_at)
      .count();
}

/// The live metrics registry parsed back into a tree (obs emits valid JSON;
/// if that ever regresses, it ships as a string).
json::Value registry_tree() {
  const std::string text = obs::metrics_json();
  json::Value tree;
  std::string parse_error;
  if (json::try_parse(text, &tree, &parse_error)) return tree;
  return json::Value(text);
}

/// A JSON object with these members, in this order.
json::Value fields(
    std::initializer_list<std::pair<const char*, json::Value>> members) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : members) out.set(name, value);
  return out;
}

json::Value cache_fields(std::size_t hits, std::size_t misses,
                         std::size_t evictions, std::size_t entries,
                         std::size_t cap) {
  return fields({{"hits", hits}, {"misses", misses}, {"evictions", evictions},
                 {"entries", entries}, {"cap", cap}});
}

}  // namespace

json::Value QapproxServer::build_stats() const {
  const Counters& c = counters_;
  const SchedulerStats sched = scheduler_.stats();
  const SchedulerOptions& sopts = options_.scheduler;
  const DurabilityStats dur = durability_stats();
  const JournalStats js = journal_stats();
  const common::LruStats rs =
      ledger_ ? ledger_->replay().stats() : common::LruStats{};
  const WatchdogStats ws = watchdog_stats();
  const exec::CacheSnapshot engine = driver::engine().cache_stats_snapshot();
  const exec::CacheStats& es = engine.stats;
  const synth::SynthCacheStats ss = synth::synth_cache_stats();
  const TailSamplerStats tail = tail_.stats();
  return fields({
      {"uptime_ms", uptime_ms(started_at_)},
      {"build", obs::build_info_summary()},
      {"socket", options_.socket_path},
      {"requests",
       fields({{"connections", c.connections.load()},
               {"total", c.requests.load()}, {"ping", c.ping.load()},
               {"simulate", c.simulate.load()},
               {"synthesize", c.synthesize.load()}, {"stats", c.stats.load()},
               {"metrics", c.metrics.load()}, {"shutdown", c.shutdown.load()},
               {"bad_requests", c.bad_requests.load()},
               {"oversized_frames", c.oversized_frames.load()},
               {"replies", c.replies.load()},
               {"write_failures", c.write_failures.load()},
               {"job_errors", c.job_errors.load()}})},
      {"scheduler",
       fields({{"workers", sopts.workers}, {"queue_cap", sopts.queue_cap},
               {"per_tenant_cap", sopts.per_tenant_cap},
               {"queued", sched.queued}, {"running", sched.running},
               {"tenants", sched.tenants}, {"submitted", sched.submitted},
               {"rejected", sched.rejected}, {"completed", sched.completed},
               {"peak_queued", sched.peak_queued},
               {"live_workers", sched.live_workers},
               {"surplus_spawned", sched.surplus_spawned}})},
      {"durability",
       fields({{"replayed", dur.replayed}, {"attached", dur.attached},
               {"recovered_jobs", dur.recovered_jobs}, {"reaped", dur.reaped},
               {"duplicate_exec", dur.duplicate_exec},  // chaos gate: == 0
               {"slow_disconnects", dur.slow_disconnects}})},
      {"journal",
       fields({{"enabled", js.enabled}, {"path", js.path},
               {"accepted", js.accepted}, {"started", js.started},
               {"done", js.done}, {"appended_bytes", js.appended_bytes},
               {"sync_calls", js.sync_calls},
               {"recovered_replies", js.recovered_replies},
               {"recovered_incomplete", js.recovered_incomplete},
               {"torn_bytes", js.torn_bytes}, {"compactions", js.compactions},
               {"recovery_ms", js.recovery_ms}})},
      {"replay_cache",
       fields({{"entries", rs.entries}, {"cap", rs.cap}, {"hits", rs.hits},
               {"misses", rs.misses}, {"evictions", rs.evictions}})},
      {"watchdog",
       fields({{"enabled", ws.enabled}, {"scans", ws.scans},
               {"strikes", ws.strikes}, {"reaped", ws.reaped},
               {"watched", ws.watched}})},
      {"engine_cache",
       fields({{"transpile",
                cache_fields(es.transpile_hits, es.transpile_misses,
                             es.transpile_evictions, engine.transpile_entries,
                             engine.cap)},
               {"model", cache_fields(es.model_hits, es.model_misses,
                                      es.model_evictions, engine.model_entries,
                                      engine.cap)},
               {"compiled",
                cache_fields(es.compiled_hits, es.compiled_misses,
                             es.compiled_evictions, engine.compiled_entries,
                             engine.cap)}})},
      {"synth_cache",
       fields({{"hits", ss.hits}, {"misses", ss.misses},
               {"evictions", ss.evictions}, {"entries", ss.entries},
               {"cap", ss.cap}, {"dir", options_.synth_cache_dir},
               {"warm_loaded", warm_loaded_}})},
      // The one stats field the metrics registry does not carry.
      {"simd_isa", linalg::simd_isa_name(linalg::active_simd_isa())},
      {"tail_sampler",
       fields({{"dir", options_.trace_dir}, {"observed", tail.observed},
               {"captured", tail.captured}, {"evicted", tail.evicted},
               {"write_failures", tail.write_failures}})},
      {"faults", common::faults::enabled() ? common::faults::active_spec()
                                           : std::string()},
      {"metrics", registry_tree()},
  });
}

QapproxServer::DurabilityStats QapproxServer::durability_stats() const {
  DurabilityStats d;
  if (ledger_) {
    d.replayed = ledger_->replayed();
    d.attached = ledger_->attached();
    d.duplicate_exec = ledger_->duplicate_exec();
  }
  d.recovered_jobs = counters_.recovered_jobs.load();
  d.reaped = counters_.reaped.load();
  d.slow_disconnects = counters_.slow_disconnects.load();
  return d;
}

WatchdogStats QapproxServer::watchdog_stats() const {
  return watchdog_ ? watchdog_->stats() : WatchdogStats{};
}

JournalStats QapproxServer::journal_stats() const {
  return ledger_ ? ledger_->journal().stats() : JournalStats{};
}

json::Value QapproxServer::build_metrics(const std::string& format) const {
  json::Value result = json::Value::object();
  result.set("uptime_ms", uptime_ms(started_at_));
  if (format == "prometheus") {
    result.set("content_type", "text/plain; version=0.0.4");
    result.set("body", obs::metrics_prometheus());
    return result;
  }
  // Live scheduler depths ride along so one poll paints the whole dashboard.
  const SchedulerStats sched = scheduler_.stats();
  result.set("queue", fields({{"queued", sched.queued},
                              {"running", sched.running},
                              {"tenants", sched.tenants}}));
  result.set("metrics", registry_tree());
  return result;
}

}  // namespace qc::serve
