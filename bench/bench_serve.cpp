// Load generator / soak driver for the qapprox server.
//
// Fires a mixed stream of jobs (simulate across workloads and devices, a
// sprinkle of synthesize, periodic stats) at a server from several client
// connections with many requests in flight each, then verifies the server's
// core contract: exactly one reply per request, every reply correlated to a
// known id, zero transport drops — and reports the latency distribution
// (p50/p95/p99) plus a queue-depth high-water mark.
//
//   bench_serve [--socket=PATH]      target an already-running server;
//                                    default: in-process server on a
//                                    build-dir socket (CI mode)
//               [--jobs=N]           total requests        (default 2000)
//               [--connections=N]    client connections    (default 8)
//               [--tenants=N]        tenant names round-robin (default 4)
//               [--inflight=N]       max outstanding per connection (32)
//               [--deadline-ms=N]    per-job soft deadline (default 150)
//               [--csv=PATH]         latency histogram artifact
//               [--prom-dump=PREFIX] scrape the wire `metrics` endpoint
//                                    mid-soak and at the end; write
//                                    PREFIX_mid.prom / PREFIX_final.prom
//                                    ("" disables the scraper)
//
// Counts lie in [1, 2^20] (connections in [1, 1024]), periods in
// [0, one day]; a value outside its range exits 1 naming the flag.
//
// Beyond latency, every job reply's server-side timeline (queued_ns /
// exec_ns) is collected, so the artifact CSV and the stdout tables split
// client-observed latency into queue wait vs execution — per percentile and
// per tenant. When the scraper is on, the final frame also compares the
// server's rolling-window latency percentiles against the client-measured
// distribution over the same wall span (the live-SLO cross-check).
//
// Exit is nonzero when any reply is missing, duplicated, or uncorrelated —
// the soak gate in CI runs this under QAPPROX_FAULTS and a sanitizer build.
//
// Crash-chaos mode (requires a server under tools/qapprox_supervisor with
// QAPPROX_JOURNAL_DIR set):
//
//   bench_serve --socket=PATH --pidfile=PATH --chaos=N
//               [--kill-interval-ms=N] [--chaos-seed=S] [--shutdown-after]
//
// Every job carries an idempotency key derived from its request id. While
// the load runs, the harness SIGKILLs the pid in --pidfile N times
// (re-reading it each cycle — the supervisor rewrites it per spawn);
// clients reconnect with backoff and resend unreplied requests under their
// original keys. The gate is the crash-durability contract: every request
// eventually gets a reply, all replies for one request id carry the same
// exec id (the job's side effects ran under exactly one acknowledged
// execution — a retry replayed or attached, never re-executed), and the
// server's duplicate_exec counter reads 0. --shutdown-after ends with a
// wire shutdown so the supervisor exits cleanly for CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <signal.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/cli.hpp"
#include "common/driver.hpp"
#include "common/error.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using qc::common::json::Value;
using Clock = std::chrono::steady_clock;

/// Ceiling on the --jobs, --tenants and --inflight counts (--connections,
/// one thread each, stops at kMaxThreadPoolSize).
constexpr std::size_t kMaxCount = std::size_t{1} << 20;

struct Sample {
  double latency_ms = 0.0;       // client-measured, send -> reply
  double received_at_ms = 0.0;   // reply arrival, relative to soak start
  std::uint64_t queue_wait_ns = 0;  // server timeline (jobs only)
  std::uint64_t exec_ns = 0;
  std::size_t tenant = 0;        // index into the tenant name table
  bool has_timeline = false;
};

struct ReplyLog {
  std::mutex mu;
  // reply counts per request id (exactly-one assertion) and latencies.
  std::vector<int> replies;       // indexed by numeric request id
  std::vector<Sample> samples;
  std::vector<std::string> statuses;
  std::uint64_t unknown_ids = 0;
  Clock::time_point t0;
};

Value make_request(std::uint64_t id, const std::string& tenant,
                   double deadline_ms) {
  // Deterministic mixed workload: mostly simulate (cheap, exercises the
  // engine caches), some synthesize (expensive, exercises the synth cache),
  // periodic stats (inline path).
  Value req = Value::object();
  req.set("id", id);
  req.set("tenant", tenant);
  req.set("deadline_ms", deadline_ms);
  const std::uint64_t r = id % 20;
  if (r == 19) {
    req.set("type", "stats");
    return req;
  }
  Value params = Value::object();
  if (r >= 16) {
    req.set("type", "synthesize");
    params.set("preset", (r % 2 == 0) ? "grover" : "tfim");
    params.set("qubits", 3);
    params.set("steps", 1 + static_cast<int>(id % 3));
    params.set("fast", true);
    params.set("max_circuits", 8);
  } else {
    req.set("type", "simulate");
    const char* workloads[3] = {"tfim", "grover", "mct"};
    params.set("workload", workloads[id % 3]);
    params.set("qubits", 3);
    params.set("steps", 1 + static_cast<int>(id % 5));
    params.set("shots", 256);
    params.set("seed", 11 + id % 7);
    params.set("device", (id % 2 == 0) ? "santiago" : "toronto");
    params.set("mode", (id % 5 == 0) ? "ideal" : "simulator");
  }
  req.set("params", std::move(params));
  return req;
}

/// One connection's worth of traffic: ids [first, first+count), windowed.
void drive_connection(const std::string& socket_path, std::uint64_t first,
                      std::uint64_t count, std::size_t inflight,
                      const std::vector<std::string>& tenants,
                      double deadline_ms, ReplyLog& log,
                      std::atomic<bool>& failed) {
  try {
    qc::serve::Client client = qc::serve::Client::connect(socket_path);
    std::vector<Clock::time_point> sent_at(count);
    std::uint64_t next = 0;      // next request index to send
    std::uint64_t received = 0;  // replies seen
    while (received < count) {
      while (next < count && next - received < inflight) {
        const std::uint64_t id = first + next;
        sent_at[next] = Clock::now();
        client.send(make_request(id, tenants[id % tenants.size()], deadline_ms));
        ++next;
      }
      auto reply = client.recv();
      if (!reply.has_value())
        throw qc::common::Error("connection closed with replies outstanding");
      ++received;
      const auto now = Clock::now();
      const Value* id = reply->find("id");
      const std::string status = reply->get_string("status", "?");
      std::lock_guard<std::mutex> lock(log.mu);
      if (id == nullptr || !id->is_number() ||
          id->as_uint64() < first || id->as_uint64() >= first + count) {
        ++log.unknown_ids;
        continue;
      }
      const std::uint64_t idx = id->as_uint64() - first;
      log.replies[id->as_uint64()] += 1;
      Sample sample;
      sample.latency_ms =
          std::chrono::duration<double, std::milli>(now - sent_at[idx]).count();
      sample.received_at_ms =
          std::chrono::duration<double, std::milli>(now - log.t0).count();
      sample.tenant = (first + idx) % tenants.size();
      if (const Value* timeline = reply->find("timeline")) {
        sample.has_timeline = true;
        sample.queue_wait_ns =
            static_cast<std::uint64_t>(timeline->get_number("queued_ns", 0.0));
        sample.exec_ns =
            static_cast<std::uint64_t>(timeline->get_number("exec_ns", 0.0));
      }
      log.samples.push_back(sample);
      log.statuses.push_back(status);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "connection [%llu..%llu): %s\n",
                 static_cast<unsigned long long>(first),
                 static_cast<unsigned long long>(first + count), e.what());
    failed.store(true);
  }
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One wire `metrics` call on a throwaway connection; empty optional when
/// the server is unreachable or the reply is malformed.
std::optional<Value> scrape_metrics(const std::string& socket_path,
                                    const char* format) {
  try {
    qc::serve::Client client = qc::serve::Client::connect(socket_path);
    Value req = Value::object();
    req.set("id", "scrape");
    req.set("type", "metrics");
    Value params = Value::object();
    params.set("format", format);
    req.set("params", std::move(params));
    Value reply = client.call(req);
    const Value* result = reply.find("result");
    if (result == nullptr || reply.get_string("status", "") != "ok")
      return std::nullopt;
    return *result;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Polls the live `metrics` endpoint from its own connection while the load
/// runs. The first exposition captured after jobs started flowing is kept as
/// the "mid-soak" artifact — later polls still run (they exercise concurrent
/// scraping) but do not overwrite it, so the final dump taken by finish()
/// genuinely post-dates it and CI's counter-monotonicity check has teeth.
struct MetricsScraper {
  std::string socket_path;
  std::atomic<bool> stop{false};
  std::thread thread;
  std::mutex mu;
  std::string mid_prom;

  void start() {
    thread = std::thread([this] {
      while (!stop.load()) {
        if (std::optional<Value> result =
                scrape_metrics(socket_path, "prometheus")) {
          const std::string body = result->get_string("body", "");
          // Keep the first scrape that already saw completed jobs.
          if (!body.empty() &&
              body.find("qapprox_serve_job_latency_ns") != std::string::npos) {
            std::lock_guard<std::mutex> lock(mu);
            if (mid_prom.empty()) mid_prom = body;
          }
        }
        for (int i = 0; i < 5 && !stop.load(); ++i)
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  void finish() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

// ---------------------------------------------------------------- chaos mode

/// A chaos request is the regular mixed load minus inline stats (every
/// request must be a job so it has an idempotency key and an exec id), with
/// the key derived from the request id so a resend after a reconnect is a
/// true retry.
Value make_chaos_request(std::uint64_t id, const std::string& tenant,
                         double deadline_ms, std::uint64_t seed) {
  Value req = make_request(id, tenant, deadline_ms);
  if (req.get_string("type", "") == "stats") {
    req.set("type", "simulate");
    Value params = Value::object();
    params.set("workload", "tfim");
    params.set("qubits", 3);
    params.set("steps", 2);
    params.set("shots", 128);
    req.set("params", std::move(params));
  }
  req.set("idem", "chaos-" + std::to_string(seed) + "-" + std::to_string(id));
  return req;
}

struct ChaosLog {
  std::mutex mu;
  std::vector<int> replies;                  // count per request id
  std::vector<std::set<std::string>> execs;  // distinct exec ids per request
  std::uint64_t replayed = 0;                // replies served from replay/attach
  std::uint64_t reaped = 0;                  // structured watchdog replies
  std::uint64_t unknown_ids = 0;
  std::uint64_t reconnects = 0;
};

/// Drives ids [first, first+count) across server crashes: reconnect with
/// backoff, resend whatever has not been answered yet under the original
/// idempotency keys, stop once every id has a reply.
void drive_chaos_connection(const std::string& socket_path,
                            std::uint64_t first, std::uint64_t count,
                            std::size_t inflight,
                            const std::vector<std::string>& tenants,
                            double deadline_ms, std::uint64_t seed,
                            ChaosLog& log, std::atomic<bool>& failed) {
  std::vector<bool> done(count, false);
  std::uint64_t remaining = count;
  int epochs = 0;
  while (remaining > 0) {
    if (++epochs > 500) {
      std::fprintf(stderr,
                   "chaos connection [%llu..%llu): gave up after %d epochs "
                   "with %llu unanswered\n",
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(first + count), epochs,
                   static_cast<unsigned long long>(remaining));
      failed.store(true);
      return;
    }
    try {
      qc::serve::Client client =
          qc::serve::Client::connect_with_retry(socket_path, 30000.0);
      std::vector<bool> sent(count, false);  // this connection epoch only
      std::size_t outstanding = 0;
      while (remaining > 0) {
        for (std::uint64_t i = 0; i < count && outstanding < inflight; ++i) {
          if (done[i] || sent[i]) continue;
          client.send(make_chaos_request(
              first + i, tenants[(first + i) % tenants.size()], deadline_ms,
              seed));
          sent[i] = true;
          ++outstanding;
        }
        if (outstanding == 0) break;  // everything left is answered
        std::optional<Value> reply = client.recv();
        if (!reply.has_value()) break;  // server died: reconnect + resend
        --outstanding;
        std::lock_guard<std::mutex> lock(log.mu);
        const Value* id = reply->find("id");
        if (id == nullptr || !id->is_number() || id->as_uint64() < first ||
            id->as_uint64() >= first + count) {
          ++log.unknown_ids;
          continue;
        }
        const std::uint64_t gid = id->as_uint64();
        const std::uint64_t idx = gid - first;
        log.replies[gid] += 1;
        const std::string exec = reply->get_string("exec", "");
        if (!exec.empty()) log.execs[gid].insert(exec);
        if (reply->get_bool("replayed", false)) ++log.replayed;
        if (const Value* error = reply->find("error"))
          if (error->get_string("kind", "") == "reaped") ++log.reaped;
        if (!done[idx]) {
          done[idx] = true;
          --remaining;
        }
      }
    } catch (const std::exception&) {
      // connect budget exhausted or a send hit a dying socket: new epoch.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (remaining > 0) {
      std::lock_guard<std::mutex> lock(log.mu);
      ++log.reconnects;
    }
  }
}

/// The supervisor rewrites the pidfile after every spawn; re-read it per
/// kill so the SIGKILL lands on the live incarnation, never a stale pid.
pid_t read_pidfile(const std::string& path) {
  std::ifstream in(path);
  long pid = 0;
  if (!(in >> pid) || pid <= 1) return -1;
  return static_cast<pid_t>(pid);
}

/// One wire `stats` call (fresh connection, retried through restarts).
std::optional<Value> scrape_stats(const std::string& socket_path) {
  try {
    qc::serve::Client client =
        qc::serve::Client::connect_with_retry(socket_path, 15000.0);
    Value req = Value::object();
    req.set("id", "chaos-stats");
    req.set("type", "stats");
    Value reply = client.call(req);
    const Value* result = reply.find("result");
    if (result == nullptr || reply.get_string("status", "") != "ok")
      return std::nullopt;
    return *result;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

int run_chaos(qc::common::CliArgs& args, const std::string& socket_path) {
  using namespace qc;
  const int chaos_kills = args.get_number("chaos", 5);
  const std::string pidfile = args.get("pidfile", "");
  QC_CHECK_MSG(!socket_path.empty(),
               "--chaos needs --socket (an external server under the "
               "supervisor; an in-process server would die with us)");
  QC_CHECK_MSG(!pidfile.empty(),
               "--chaos needs --pidfile (the supervisor's, to aim SIGKILL)");
  const std::uint64_t jobs = args.get_number<std::uint64_t>("jobs", 2000, 1, kMaxCount);
  const std::size_t connections =
      args.get_number<std::size_t>("connections", 8, 1, common::kMaxThreadPoolSize);
  const std::size_t num_tenants = args.get_number<std::size_t>("tenants", 4, 1, kMaxCount);
  const std::size_t inflight = args.get_number<std::size_t>("inflight", 32, 1, kMaxCount);
  const double deadline_ms = args.get_number("deadline-ms", 150.0, 0.0, common::kMaxPeriodMs);
  const double kill_interval_ms =
      args.get_number("kill-interval-ms", 700.0, 0.0, common::kMaxPeriodMs);
  const std::uint64_t seed = args.get_number<std::uint64_t>("chaos-seed", 11);

  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < num_tenants; ++t)
    tenants.push_back("tenant-" + std::to_string(t));

  ChaosLog log;
  log.replies.assign(jobs, 0);
  log.execs.assign(jobs, {});
  std::atomic<bool> failed{false};
  std::atomic<bool> load_done{false};

  const auto t0 = Clock::now();
  std::vector<std::thread> drivers;
  const std::uint64_t per_conn = (jobs + connections - 1) / connections;
  for (std::size_t c = 0; c < connections; ++c) {
    const std::uint64_t first = static_cast<std::uint64_t>(c) * per_conn;
    if (first >= jobs) break;
    const std::uint64_t count = std::min(per_conn, jobs - first);
    drivers.emplace_back([&, first, count] {
      drive_chaos_connection(socket_path, first, count, inflight, tenants,
                             deadline_ms, seed, log, failed);
    });
  }

  // The kill loop: every interval, SIGKILL whatever pid the supervisor
  // last wrote. Runs to its full count even if the load drains early (the
  // recovery path still gets exercised); kills landing mid-load are counted
  // separately because they are the ones that prove the contract.
  int kills_done = 0, kills_mid_load = 0;
  std::thread killer([&] {
    while (kills_done < chaos_kills) {
      const auto resume =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(kill_interval_ms));
      while (Clock::now() < resume)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const pid_t pid = read_pidfile(pidfile);
      if (pid <= 1) continue;  // supervisor has not (re)written it yet
      if (::kill(pid, SIGKILL) == 0) {
        ++kills_done;
        if (!load_done.load()) ++kills_mid_load;
        std::printf("chaos: SIGKILL %d (%d/%d%s)\n", static_cast<int>(pid),
                    kills_done, chaos_kills,
                    load_done.load() ? ", post-load" : "");
        std::fflush(stdout);
      }
    }
  });

  for (std::thread& t : drivers) t.join();
  load_done.store(true);
  killer.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // ---- the crash contract ---------------------------------------------------
  std::uint64_t missing = 0, multi_exec = 0, total_replies = 0;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    if (log.replies[i] == 0) ++missing;
    if (log.execs[i].size() > 1) ++multi_exec;
    total_replies += static_cast<std::uint64_t>(log.replies[i]);
  }

  // The final boot's own counters (duplicate_exec is per-boot and must be 0
  // in every boot; the exec-id invariant above covers the earlier ones).
  std::uint64_t duplicate_exec = 0, recovered_jobs = 0, replay_hits = 0;
  double recovery_ms = -1.0;
  bool stats_ok = false;
  if (std::optional<Value> stats = scrape_stats(socket_path)) {
    stats_ok = true;
    if (const Value* dur = stats->find("durability")) {
      duplicate_exec =
          static_cast<std::uint64_t>(dur->get_number("duplicate_exec", 0.0));
      recovered_jobs =
          static_cast<std::uint64_t>(dur->get_number("recovered_jobs", 0.0));
      replay_hits =
          static_cast<std::uint64_t>(dur->get_number("replayed", 0.0));
    }
    if (const Value* journal = stats->find("journal"))
      recovery_ms = journal->get_number("recovery_ms", -1.0);
  }

  std::printf("chaos soak: %llu jobs, %d SIGKILLs (%d mid-load) in %.0f ms\n",
              static_cast<unsigned long long>(jobs), kills_done,
              kills_mid_load, wall_ms);
  std::printf("  replies %llu (replayed %llu, reaped %llu), reconnect epochs "
              "%llu\n",
              static_cast<unsigned long long>(total_replies),
              static_cast<unsigned long long>(log.replayed),
              static_cast<unsigned long long>(log.reaped),
              static_cast<unsigned long long>(log.reconnects));
  std::printf("  final boot: %llu jobs recovered from the journal, %llu "
              "replay hits, recovery %.1f ms\n",
              static_cast<unsigned long long>(recovered_jobs),
              static_cast<unsigned long long>(replay_hits), recovery_ms);

  if (args.get_bool("shutdown-after", false)) {
    try {
      qc::serve::Client client =
          qc::serve::Client::connect_with_retry(socket_path, 15000.0);
      Value req = Value::object();
      req.set("id", "chaos-shutdown");
      req.set("type", "shutdown");
      client.call(req);
      std::printf("chaos: sent wire shutdown\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos: shutdown request failed: %s\n", e.what());
      failed.store(true);
    }
  }

  const bool ok = !failed.load() && stats_ok && missing == 0 &&
                  multi_exec == 0 && log.unknown_ids == 0 &&
                  duplicate_exec == 0 && kills_done == chaos_kills;
  std::printf("chaos gate: missing %llu, multi-exec ids %llu, uncorrelated "
              "%llu, duplicate_exec %llu -> %s\n",
              static_cast<unsigned long long>(missing),
              static_cast<unsigned long long>(multi_exec),
              static_cast<unsigned long long>(log.unknown_ids),
              static_cast<unsigned long long>(duplicate_exec),
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace qc;
  common::driver::DriverContext ctx(argc, argv, "bench_serve");

  if (ctx.args.get_number("chaos", 0) > 0)
    return run_chaos(ctx.args, ctx.args.get("socket", ""));

  const std::uint64_t jobs = ctx.args.get_number<std::uint64_t>("jobs", 2000, 1, kMaxCount);
  const std::size_t connections =
      ctx.args.get_number<std::size_t>("connections", 8, 1, common::kMaxThreadPoolSize);
  const std::size_t num_tenants = ctx.args.get_number<std::size_t>("tenants", 4, 1, kMaxCount);
  const std::size_t inflight = ctx.args.get_number<std::size_t>("inflight", 32, 1, kMaxCount);
  const double deadline_ms = ctx.args.get_number("deadline-ms", 150.0, 0.0, common::kMaxPeriodMs);
  const std::string prom_dump = ctx.args.get("prom-dump", "");
  std::string socket_path = ctx.args.get("socket", "");

  // CI mode: no --socket means host the server in-process on a local socket.
  std::unique_ptr<serve::QapproxServer> server;
  if (socket_path.empty()) {
    serve::ServerOptions opts = serve::ServerOptions::from_env();
    if (std::getenv("QAPPROX_SERVE_SOCKET") == nullptr)
      opts.socket_path = "/tmp/qapprox_bench.sock";
    socket_path = opts.socket_path;
    server = std::make_unique<serve::QapproxServer>(opts);
    server->start();
    std::printf("in-process server on %s (%zu workers, queue cap %zu)\n",
                socket_path.c_str(), opts.scheduler.workers,
                opts.scheduler.queue_cap);
  }

  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < num_tenants; ++t)
    tenants.push_back("tenant-" + std::to_string(t));

  ReplyLog log;
  log.replies.assign(jobs, 0);
  log.samples.reserve(jobs);
  std::atomic<bool> failed{false};

  MetricsScraper scraper;
  scraper.socket_path = socket_path;
  if (!prom_dump.empty()) scraper.start();

  const auto t0 = Clock::now();
  log.t0 = t0;
  std::vector<std::thread> drivers;
  const std::uint64_t per_conn = (jobs + connections - 1) / connections;
  for (std::size_t c = 0; c < connections; ++c) {
    const std::uint64_t first = static_cast<std::uint64_t>(c) * per_conn;
    if (first >= jobs) break;
    const std::uint64_t count = std::min(per_conn, jobs - first);
    drivers.emplace_back([&, first, count] {
      drive_connection(socket_path, first, count, inflight, tenants,
                       deadline_ms, log, failed);
    });
  }
  for (std::thread& t : drivers) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Final scrapes while the server is still up: the JSON tree for the
  // rolling-vs-client comparison, the exposition for the CI artifact pair.
  std::optional<Value> final_metrics;
  std::string final_prom;
  if (!prom_dump.empty()) {
    scraper.finish();
    final_metrics = scrape_metrics(socket_path, "json");
    if (std::optional<Value> result = scrape_metrics(socket_path, "prometheus"))
      final_prom = result->get_string("body", "");
  }
  const double finished_at_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // ---- the contract: exactly one reply per request --------------------------
  std::uint64_t missing = 0, duplicated = 0;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    if (log.replies[i] == 0) ++missing;
    if (log.replies[i] > 1) ++duplicated;
  }
  std::map<std::string, std::uint64_t> by_status;
  for (const std::string& s : log.statuses) ++by_status[s];

  std::vector<double> sorted, qwait_ns_sorted, exec_ns_sorted;
  sorted.reserve(log.samples.size());
  for (const Sample& s : log.samples) {
    sorted.push_back(s.latency_ms);
    if (s.has_timeline) {
      qwait_ns_sorted.push_back(static_cast<double>(s.queue_wait_ns));
      exec_ns_sorted.push_back(static_cast<double>(s.exec_ns));
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::sort(qwait_ns_sorted.begin(), qwait_ns_sorted.end());
  std::sort(exec_ns_sorted.begin(), exec_ns_sorted.end());
  const double p50 = percentile(sorted, 0.50);
  const double p95 = percentile(sorted, 0.95);
  const double p99 = percentile(sorted, 0.99);

  std::printf("%llu jobs over %zu connections in %.0f ms (%.0f jobs/s)\n",
              static_cast<unsigned long long>(jobs), drivers.size(), wall_ms,
              1000.0 * static_cast<double>(jobs) / std::max(wall_ms, 1.0));
  for (const auto& [status, n] : by_status)
    std::printf("  status %-9s %llu\n", status.c_str(),
                static_cast<unsigned long long>(n));
  std::printf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n", p50, p95,
              p99, sorted.empty() ? 0.0 : sorted.back());
  std::printf("server timeline (%zu jobs): queue-wait p95 %.2f ms, exec p95 "
              "%.2f ms\n",
              qwait_ns_sorted.size(),
              percentile(qwait_ns_sorted, 0.95) / 1e6,
              percentile(exec_ns_sorted, 0.95) / 1e6);

  // Per-tenant breakdown: client latency plus the server-side split, so a
  // fairness regression (one tenant's queue wait ballooning) is visible in
  // the soak output directly.
  std::printf("per-tenant (client ms / server ns percentiles):\n");
  std::printf("  %-10s %6s %9s %9s %9s %12s %12s\n", "tenant", "n", "p50 ms",
              "p95 ms", "p99 ms", "qwait p95 ms", "exec p95 ms");
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::vector<double> lat, qw, ex;
    for (const Sample& s : log.samples) {
      if (s.tenant != t) continue;
      lat.push_back(s.latency_ms);
      if (s.has_timeline) {
        qw.push_back(static_cast<double>(s.queue_wait_ns));
        ex.push_back(static_cast<double>(s.exec_ns));
      }
    }
    std::sort(lat.begin(), lat.end());
    std::sort(qw.begin(), qw.end());
    std::sort(ex.begin(), ex.end());
    std::printf("  %-10s %6zu %9.2f %9.2f %9.2f %12.2f %12.2f\n",
                tenants[t].c_str(), lat.size(), percentile(lat, 0.50),
                percentile(lat, 0.95), percentile(lat, 0.99),
                percentile(qw, 0.95) / 1e6, percentile(ex, 0.95) / 1e6);
  }

  // Latency histogram artifact (CI uploads this CSV) with the server-side
  // phase split alongside the client-observed latency.
  common::Table table({"percentile", "latency_ms", "queue_wait_ns", "exec_ns"});
  const double percentiles[] = {0.5, 0.75, 0.9, 0.95, 0.99, 1.0};
  for (const double p : percentiles)
    table.add_row({common::format_double(p, 2),
                   common::format_double(percentile(sorted, p), 3),
                   common::format_double(percentile(qwait_ns_sorted, p), 0),
                   common::format_double(percentile(exec_ns_sorted, p), 0)});
  const std::string csv_path = ctx.args.get("csv", "bench_serve_latency.csv");
  table.write_csv(csv_path);
  std::printf("latency table -> %s\n", csv_path.c_str());

  if (!prom_dump.empty()) {
    if (!scraper.mid_prom.empty())
      common::atomic_write_file(prom_dump + "_mid.prom", scraper.mid_prom);
    if (!final_prom.empty())
      common::atomic_write_file(prom_dump + "_final.prom", final_prom);
    std::printf("prometheus dumps -> %s_mid.prom, %s_final.prom (%s)\n",
                prom_dump.c_str(), prom_dump.c_str(),
                scraper.mid_prom.empty() || final_prom.empty()
                    ? "INCOMPLETE"
                    : "ok");
  }

  // Live-SLO cross-check: the server's rolling latency percentiles against
  // the client-measured distribution over the same wall span. Client numbers
  // include frame transport and socket queueing ahead of admission, so they
  // upper-bound the server's; large divergence beyond that flags a rolling
  // histogram bug.
  if (final_metrics) {
    const Value* metrics = final_metrics->find("metrics");
    const Value* rolling = metrics ? metrics->find("rolling") : nullptr;
    const Value* lat = rolling ? rolling->find("serve.job.latency_ns") : nullptr;
    if (lat != nullptr && lat->is_object()) {
      const double covered_ms = lat->get_number("covered_s", 0.0) * 1000.0;
      std::vector<double> windowed;
      for (const Sample& s : log.samples)
        if (s.received_at_ms >= finished_at_ms - covered_ms)
          windowed.push_back(s.latency_ms);
      std::sort(windowed.begin(), windowed.end());
      std::printf(
          "rolling vs client over last %.1f s (%zu client samples):\n",
          covered_ms / 1000.0, windowed.size());
      const std::pair<const char*, double> quantiles[] = {
          {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};
      for (const auto& [key, p] : quantiles) {
        const double server_ms = lat->get_number(key, 0.0) / 1e6;
        const double client_ms = percentile(windowed, p);
        std::printf("  %s: server %8.2f ms   client %8.2f ms   (%+.1f%%)\n",
                    key, server_ms, client_ms,
                    client_ms > 0.0
                        ? 100.0 * (server_ms - client_ms) / client_ms
                        : 0.0);
      }
    }
  }

  std::uint64_t peak_queued = 0;
  if (server) {
    const Value stats = server->build_stats();
    if (const Value* sched = stats.find("scheduler"))
      peak_queued =
          static_cast<std::uint64_t>(sched->get_number("peak_queued", 0.0));
    server->stop();
    std::printf("server stats: %s\n", stats.dump().c_str());
  }

  const bool ok = !failed.load() && missing == 0 && duplicated == 0 &&
                  log.unknown_ids == 0;
  std::printf("replies: missing %llu, duplicated %llu, uncorrelated %llu, "
              "peak queue depth %llu -> %s\n",
              static_cast<unsigned long long>(missing),
              static_cast<unsigned long long>(duplicated),
              static_cast<unsigned long long>(log.unknown_ids),
              static_cast<unsigned long long>(peak_queued),
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int main(int argc, char** argv) { return qc::common::run_main(argc, argv, run); }
