// The qapprox server daemon.
//
// Binds the approximation service to a local socket and runs until a wire
// "shutdown" request or SIGINT/SIGTERM. Configuration is flags-over-env:
//
//   qapprox_serve [--socket=PATH] [--workers=N] [--queue-cap=N]
//                 [--cache-dir=DIR] [--trace-dir=DIR] [--journal-dir=DIR]
//                 [--metrics-period-ms=N] [--version]
//
//   QAPPROX_SERVE_SOCKET       socket path        (default /tmp/qapprox.sock)
//   QAPPROX_SERVE_WORKERS      worker threads     (default 4)
//   QAPPROX_SERVE_QUEUE_CAP    total queued jobs  (default 256)
//   QAPPROX_SYNTH_CACHE_DIR    synthesis-cache snapshot dir (default: off)
//   QAPPROX_TRACE_DIR          tail-sample capture dir      (default: off)
//   QAPPROX_METRICS_PERIOD_MS  periodic metrics snapshots to the
//                              QAPPROX_METRICS path (+ .prom) (default: off)
//   QAPPROX_JOURNAL_DIR        crash-durable job journal dir (default: off)
//   QAPPROX_REPLAY_CACHE       reply-replay cache entries    (default 4096)
//   QAPPROX_WRITE_BUDGET       per-connection write-queue bytes (default 8 MiB)
//   QAPPROX_WATCHDOG_MS        hung-job scan period; 0 = off (default 250)
//   QAPPROX_WATCHDOG_GRACE     budget multiplier before a strike (default 4)
//
// The rolling SLO histograms and the tail sampler use fixed 1000 ms windows.
//
// For crash durability run it under tools/qapprox_supervisor (restart with
// backoff + pidfile) and point QAPPROX_JOURNAL_DIR at a scratch directory:
// a SIGKILL'd server replays its journal on the next spawn and loses no
// acknowledged job.
//
// On exit the daemon prints its stats payload (the same JSON a "stats"
// request returns) so soak scripts can assert on counters without keeping a
// client open through shutdown. A SIGTERM/SIGINT drain also flushes the
// armed QAPPROX_TRACE / QAPPROX_METRICS exports and the pending tail-sample
// window before the process exits — a killed soak still leaves artifacts.
#include <csignal>
#include <cstdio>

#include "common/cli.hpp"
#include "common/driver.hpp"
#include "serve/server.hpp"

namespace {

qc::serve::QapproxServer* g_server = nullptr;

void handle_signal(int) {
  // request_shutdown is flag + condvar; teardown happens on the main thread.
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace qc;
  common::driver::DriverContext ctx(argc, argv, "qapprox_serve");

  serve::ServerOptions opts = serve::ServerOptions::from_env();
  opts.socket_path = ctx.args.get("socket", opts.socket_path);
  opts.scheduler.workers = static_cast<std::size_t>(ctx.args.get_int(
      "workers", static_cast<int>(opts.scheduler.workers)));
  opts.scheduler.queue_cap = static_cast<std::size_t>(ctx.args.get_int(
      "queue-cap", static_cast<int>(opts.scheduler.queue_cap)));
  opts.synth_cache_dir = ctx.args.get("cache-dir", opts.synth_cache_dir);
  opts.trace_dir = ctx.args.get("trace-dir", opts.trace_dir);
  opts.journal_dir = ctx.args.get("journal-dir", opts.journal_dir);
  opts.metrics_period_ms =
      ctx.args.get_double("metrics-period-ms", opts.metrics_period_ms);

  serve::QapproxServer server(opts);
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  server.start();
  std::printf("qapprox_serve: listening on %s\n", opts.socket_path.c_str());
  std::fflush(stdout);
  server.wait();
  std::printf("qapprox_serve: shutting down\n");
  server.stop();
  std::printf("%s\n", server.build_stats().dump().c_str());
  g_server = nullptr;
  return 0;
}

int main(int argc, char** argv) { return qc::common::run_main(argc, argv, run); }
