// qapprox_top: a live terminal dashboard for a running qapprox server.
//
// Polls the wire `metrics` request (one frame per refresh — the server
// answers it inline, never queued behind jobs) and renders the SLO view an
// operator actually watches during a soak: per-kind and per-tenant job
// rates with rolling p50/p95/p99 latency, the queue-wait vs execution
// breakdown, live queue depth, and engine/synthesis cache hit ratios.
// Curses-free by design: a plain ANSI home-and-redraw loop, so it works in
// any terminal, under `watch`, through ssh, and inside CI logs (--once).
//
//   qapprox_top [--socket=PATH]      server socket (default: env
//                                    QAPPROX_SERVE_SOCKET or /tmp/qapprox.sock)
//               [--interval-ms=N]    refresh period       (default 1000)
//               [--iterations=N]     stop after N frames  (default 0 = forever)
//               [--once]             one frame, no screen clearing
//               [--no-clear]         append frames instead of redrawing
//
// Exit is nonzero only when the first connection attempt fails; a server
// that goes away mid-session keeps the last frame on screen and retries.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/driver.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"

namespace {

using qc::common::json::Value;

struct RollingRow {
  double rate = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::uint64_t count = 0;
};

/// Pulls one rolling-histogram summary out of the metrics tree (values in
/// nanoseconds as exported); absent names yield a zero row.
RollingRow rolling_row(const Value& rolling, const std::string& name) {
  RollingRow row;
  const Value* entry = rolling.find(name);
  if (entry == nullptr || !entry->is_object()) return row;
  row.rate = entry->get_number("rate", 0.0);
  row.p50 = entry->get_number("p50", 0.0);
  row.p95 = entry->get_number("p95", 0.0);
  row.p99 = entry->get_number("p99", 0.0);
  row.count = static_cast<std::uint64_t>(entry->get_number("count", 0.0));
  return row;
}

double counter_value(const Value& counters, const std::string& name) {
  return counters.get_number(name, 0.0);
}

double hit_ratio(const Value& counters, const std::string& base) {
  const double hits = counter_value(counters, base + ".hits");
  const double misses = counter_value(counters, base + ".misses");
  const double total = hits + misses;
  return total > 0.0 ? 100.0 * hits / total : 0.0;
}

double ms(double ns) { return ns / 1e6; }

void print_latency_line(const char* label, const RollingRow& lat,
                        const RollingRow& queue_wait, const RollingRow& exec) {
  std::printf("  %-14s %8.1f %9.2f %9.2f %9.2f %11.2f %9.2f\n", label,
              lat.rate, ms(lat.p50), ms(lat.p95), ms(lat.p99),
              ms(queue_wait.p95), ms(exec.p95));
}

/// Rolling names are flat ("serve.job.latency_ns.tenant.team-a"); collect
/// the label suffixes present for one marker (".tenant." / ".kind.").
std::vector<std::string> label_values(const Value& rolling,
                                      const std::string& marker) {
  std::vector<std::string> out;
  if (!rolling.is_object()) return out;
  const std::string prefix = "serve.job.latency_ns" + marker;
  for (const auto& [name, entry] : rolling.members()) {
    (void)entry;
    if (name.rfind(prefix, 0) == 0) out.push_back(name.substr(prefix.size()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool render_frame(qc::serve::Client& client, std::uint64_t frame_id) {
  Value req = Value::object();
  req.set("id", frame_id);
  req.set("type", "metrics");
  Value params = Value::object();
  params.set("format", "json");
  req.set("params", std::move(params));

  Value reply;
  try {
    reply = client.call(req);
  } catch (const std::exception& e) {
    std::printf("[poll failed: %s]\n", e.what());
    return false;
  }
  const Value* result = reply.find("result");
  if (result == nullptr || reply.get_string("status", "") != "ok") {
    std::printf("[unexpected reply: %s]\n", reply.dump().c_str());
    return false;
  }

  const double uptime_s = result->get_number("uptime_ms", 0.0) / 1000.0;
  std::size_t queued = 0, running = 0, tenants_active = 0;
  if (const Value* queue = result->find("queue")) {
    queued = static_cast<std::size_t>(queue->get_number("queued", 0.0));
    running = static_cast<std::size_t>(queue->get_number("running", 0.0));
    tenants_active =
        static_cast<std::size_t>(queue->get_number("tenants", 0.0));
  }
  std::printf("qapprox_top  uptime %8.1fs   queue %zu waiting / %zu running "
              "/ %zu active tenants\n",
              uptime_s, queued, running, tenants_active);

  static const Value empty = Value::object();
  const Value* metrics = result->find("metrics");
  const Value* rolling_ptr =
      metrics != nullptr ? metrics->find("rolling") : nullptr;
  const Value* counters_ptr =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  const Value& rolling = rolling_ptr != nullptr ? *rolling_ptr : empty;
  const Value& counters = counters_ptr != nullptr ? *counters_ptr : empty;

  const RollingRow depth = rolling_row(rolling, "serve.queue.depth.window");
  std::printf("queue depth (window): p50 %.0f  p95 %.0f  p99 %.0f  "
              "(%llu submits)\n",
              depth.p50, depth.p95, depth.p99,
              static_cast<unsigned long long>(depth.count));

  std::printf("\n  %-14s %8s %9s %9s %9s %11s %9s\n", "jobs", "rate/s",
              "p50 ms", "p95 ms", "p99 ms", "qwait p95", "exec p95");
  const auto section = [&](const char* label, const std::string& suffix) {
    print_latency_line(
        label, rolling_row(rolling, "serve.job.latency_ns" + suffix),
        rolling_row(rolling, "serve.job.queue_wait_ns" + suffix),
        rolling_row(rolling, "serve.job.exec_ns" + suffix));
  };
  section("all", "");
  for (const std::string& kind : label_values(rolling, ".kind."))
    section(kind.c_str(), ".kind." + kind);
  const std::vector<std::string> tenants = label_values(rolling, ".tenant.");
  if (!tenants.empty()) {
    std::printf("  %-14s\n", "by tenant:");
    for (const std::string& t : tenants)
      section(("  " + t).c_str(), ".tenant." + t);
  }

  std::printf("\ncache hit%%: transpile %5.1f  model %5.1f  compiled %5.1f  "
              "synth %5.1f\n",
              hit_ratio(counters, "exec.cache.transpile"),
              hit_ratio(counters, "exec.cache.model"),
              hit_ratio(counters, "exec.cache.compiled"),
              hit_ratio(counters, "synth.cache"));
  std::printf("jobs since boot: %.0f replies, %.0f scheduler rejections\n",
              counter_value(counters, "serve.scheduler.completed"),
              counter_value(counters, "serve.scheduler.rejected"));
  return true;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace qc;
  common::driver::DriverContext ctx(argc, argv, "qapprox_top");

  std::string socket_path = ctx.args.get("socket", "");
  if (socket_path.empty()) {
    const char* env = std::getenv("QAPPROX_SERVE_SOCKET");
    socket_path = (env != nullptr && *env != '\0') ? env : "/tmp/qapprox.sock";
  }
  const bool once = ctx.args.get_bool("once", false);
  const bool clear = !once && !ctx.args.get_bool("no-clear", false);
  const int interval_ms = ctx.args.get_number(
      "interval-ms", 1000, 50, static_cast<int>(common::kMaxPeriodMs));
  const int iterations =
      once ? 1 : ctx.args.get_number("iterations", 0, 0, std::numeric_limits<int>::max());

  serve::Client client;
  try {
    client = serve::Client::connect(socket_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qapprox_top: cannot connect to %s: %s\n",
                 socket_path.c_str(), e.what());
    return 1;
  }

  std::uint64_t frame = 0;
  while (iterations <= 0 || frame < static_cast<std::uint64_t>(iterations)) {
    if (clear) std::printf("\x1b[2J\x1b[H");  // home + clear: steady redraw
    std::printf("[%s  refresh %d ms]\n", socket_path.c_str(), interval_ms);
    if (!render_frame(client, ++frame)) {
      // Server restarted or went away: reconnect on the next tick rather
      // than dying mid-soak.
      client.close();
      try {
        client = serve::Client::connect(socket_path);
      } catch (const std::exception&) {
      }
    }
    std::fflush(stdout);
    if (iterations > 0 && frame >= static_cast<std::uint64_t>(iterations)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int main(int argc, char** argv) { return qc::common::run_main(argc, argv, run); }
