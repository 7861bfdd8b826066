// The qapprox server daemon.
//
// Binds the approximation service to a local socket and runs until a wire
// "shutdown" request or SIGINT/SIGTERM. Its settings come from the
// environment alone (ServerOptions::from_env); the only flag is --version.
//
//   QAPPROX_SERVE_SOCKET       socket path        (default /tmp/qapprox.sock)
//   QAPPROX_SERVE_WORKERS      worker threads, 1-1024        (default 4)
//   QAPPROX_SERVE_QUEUE_CAP    total queued jobs, 1-65536    (default 256)
//   QAPPROX_SYNTH_CACHE_DIR    synthesis-cache snapshot dir (default: off)
//   QAPPROX_TRACE_DIR          tail-sample capture dir      (default: off)
//   QAPPROX_METRICS_PERIOD_MS  periodic metrics snapshots to the
//                              QAPPROX_METRICS path (+ .prom) (default: off)
//   QAPPROX_JOURNAL_DIR        crash-durable job journal dir (default: off)
//   QAPPROX_WATCHDOG_MS        hung-job scan period; 0 = off (default 250)
//
// Both periods lie in [0, one day]. A malformed or out-of-range number warns
// and keeps its default.
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
#include "common/error.hpp"
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

  if (argc > 1)
    throw common::ContractError(
        "qapprox_serve takes no flags besides --version; set QAPPROX_SERVE_WORKERS, "
        "QAPPROX_SERVE_SOCKET and its other settings in the environment");
  const serve::ServerOptions opts = serve::ServerOptions::from_env();
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
