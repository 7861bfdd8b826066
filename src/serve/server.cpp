#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <set>
#include <system_error>
#include <utility>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/deadline.hpp"
#include "common/driver.hpp"
#include "common/error.hpp"
#include "common/io.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"
#include "obs/rolling.hpp"
#include "serve/jobs.hpp"
#include "synth/persist.hpp"

namespace qc::serve {

namespace json = common::json;
namespace driver = common::driver;
using common::env_number;

namespace {

/// Span of one rolling-histogram window for the per-job SLO metrics and of
/// one tail-sampling window: 1000 ms.
constexpr std::uint64_t kMetricsWindowNs = 1'000'000'000ull;

TailSamplerOptions tail_options(const ServerOptions& opts) {
  TailSamplerOptions t;
  t.dir = opts.trace_dir;
  t.top_k = opts.tail_top_k;
  t.window_ns = kMetricsWindowNs;
  return t;
}

/// Metric-name-safe rendering of a caller-supplied label segment.
std::string sanitize_label(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
            c == '_')
               ? c
               : '_';
  if (out.empty()) out = "anon";
  if (out.size() > 48) out.resize(48);
  return out;
}

/// Caps tenant-label cardinality: the first 32 distinct tenants get their own
/// rolling series, the rest fold into "other" — a hostile client choosing a
/// fresh tenant name per request must not mint unbounded instruments.
std::string tenant_label(const std::string& tenant) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>;
  const std::string s = sanitize_label(tenant);
  std::lock_guard<std::mutex> lock(mu);
  if (seen->count(s) != 0) return s;
  if (seen->size() >= 32) return "other";
  seen->insert(s);
  return s;
}

std::string trace_id_hex(std::uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions opts;
  if (const char* sock = std::getenv("QAPPROX_SERVE_SOCKET"))
    if (*sock != '\0') opts.socket_path = sock;
  opts.scheduler.workers = env_number<std::size_t>(
      "QAPPROX_SERVE_WORKERS", opts.scheduler.workers, 1, common::kMaxThreadPoolSize);
  opts.scheduler.queue_cap = env_number<std::size_t>(
      "QAPPROX_SERVE_QUEUE_CAP", opts.scheduler.queue_cap, 1, kMaxQueueCap);
  opts.scheduler.per_tenant_cap =
      std::min(opts.scheduler.per_tenant_cap, opts.scheduler.queue_cap);
  opts.synth_cache_dir = synth::synth_cache_dir_env();
  if (const char* dir = std::getenv("QAPPROX_TRACE_DIR"))
    if (*dir != '\0') opts.trace_dir = dir;
  opts.metrics_period_ms = env_number("QAPPROX_METRICS_PERIOD_MS", opts.metrics_period_ms,
                                      0.0, common::kMaxPeriodMs);
  if (const char* dir = std::getenv("QAPPROX_JOURNAL_DIR"))
    if (*dir != '\0') opts.journal_dir = dir;
  opts.watchdog.scan_period_ms = env_number(
      "QAPPROX_WATCHDOG_MS", opts.watchdog.scan_period_ms, 0.0, common::kMaxPeriodMs);
  return opts;
}

/// Per-connection shared state. The reader thread, the writer thread, and
/// the sink of every dispatched job hold a shared_ptr; the last owner's
/// destructor closes the fd, so replies for a disconnected client degrade to
/// counted write failures, never a write to a reused descriptor. Replies are
/// staged in a bounded byte-budget queue drained by the connection's writer
/// thread; a client slower than its replies accumulate is disconnected at
/// the budget (slow-loris back-pressure) instead of wedging a worker or
/// growing the queue.
struct QapproxServer::ConnState {
  int fd = -1;
  std::atomic<bool> write_ok{true};

  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<std::string> queue;  // encoded frames, FIFO
  std::size_t queued_bytes = 0;
  std::size_t pending_jobs = 0;   // dispatched jobs not yet replied
  bool reader_done = false;       // read loop ended

  ~ConnState() {
    if (fd >= 0) ::close(fd);
  }
};

QapproxServer::QapproxServer(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(options_.scheduler),
      tail_(tail_options(options_)) {
  // Exec ids are "<boot>-<seq>": unique per actual execution across
  // restarts, which is what lets the chaos harness prove a request id never
  // executed twice.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llx",
                static_cast<unsigned long long>(
                    (obs::now_ns() ^ (static_cast<std::uint64_t>(::getpid())
                                      << 32)) &
                    0xFFFFFFFFFFFFull));
  boot_id_ = buf;
}

QapproxServer::~QapproxServer() { stop(); }

void QapproxServer::start() {
  QC_CHECK_MSG(!running_.load(), "server already started");
  driver::init_runtime();
  started_at_ = std::chrono::steady_clock::now();

  if (tail_.enabled()) {
    // Tail sampling extracts traces from the live span buffers, so tracing
    // must be on even without QAPPROX_TRACE — with bounded per-thread rings:
    // a daemon traces forever in constant memory, and 32k events per thread
    // comfortably covers several sampling windows of job spans.
    obs::enable_tracing();
    obs::set_timing_enabled(true);
    obs::set_trace_capacity(32768);
    QC_LOG_INFO("serve", "tail sampling to %s (top %zu per %.0f ms window)",
                tail_.options().dir.c_str(), tail_.options().top_k,
                static_cast<double>(tail_.options().window_ns) / 1e6);
  }

  if (!options_.synth_cache_dir.empty()) {
    warm_loaded_ = synth::synth_cache_load(options_.synth_cache_dir);
    if (warm_loaded_ > 0)
      QC_LOG_INFO("serve", "warm-started %llu synthesis-cache entries from %s",
                  static_cast<unsigned long long>(warm_loaded_),
                  options_.synth_cache_dir.c_str());
  }

  // Crash durability: recover the journal (rebuilding the replay cache),
  // arm the watchdog, and re-enqueue accepted-but-unfinished jobs — all
  // before the listener exists, so no connection observes a half-recovered
  // server and no job runs unwatched.
  ledger_ = std::make_unique<JobLedger>(options_.journal_dir,
                                        options_.replay_cache_cap);
  if (ledger_->journal().enabled()) {
    const JournalStats js = ledger_->journal().stats();
    QC_LOG_INFO("serve",
                "journal %s: %llu replies replayed, %llu jobs to re-enqueue, "
                "%llu torn bytes discarded (%.1f ms)",
                js.path.c_str(),
                static_cast<unsigned long long>(js.recovered_replies),
                static_cast<unsigned long long>(js.recovered_incomplete),
                static_cast<unsigned long long>(js.torn_bytes), js.recovery_ms);
  }
  watchdog_ = std::make_unique<Watchdog>(
      options_.watchdog,
      [this](const std::shared_ptr<JobTicket>& ticket) { reap_job(ticket); });
  replay_recovered_jobs();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  QC_CHECK_MSG(options_.socket_path.size() < sizeof(addr.sun_path),
               "socket path too long: " + options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  const auto fail = [this](const std::string& call) {
    const int err = errno;
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    throw common::Error("serve: " + call + " failed: " + std::strerror(err));
  };
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail("socket()");
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    fail("bind(" + options_.socket_path + ")");
  if (::listen(listen_fd_, 64) != 0) fail("listen()");

  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (options_.metrics_period_ms > 0.0) {
    if (obs::metrics_export_path().empty()) {
      QC_LOG_WARN("serve",
                  "QAPPROX_METRICS_PERIOD_MS is set but QAPPROX_METRICS is "
                  "not; periodic snapshots have nowhere to go");
    } else {
      {
        std::lock_guard<std::mutex> lock(exporter_mu_);
        exporter_stop_ = false;
      }
      exporter_thread_ = std::thread([this] { exporter_loop(); });
      QC_LOG_INFO("serve", "metrics snapshots every %.0f ms -> %s{,.prom}",
                  options_.metrics_period_ms,
                  obs::metrics_export_path().c_str());
    }
  }
  QC_LOG_INFO("serve", "listening on %s (%zu workers, queue cap %zu)",
              options_.socket_path.c_str(), options_.scheduler.workers,
              options_.scheduler.queue_cap);
}

void QapproxServer::exporter_loop() {
  std::unique_lock<std::mutex> lock(exporter_mu_);
  while (!exporter_stop_) {
    exporter_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(options_.metrics_period_ms),
        [this] { return exporter_stop_; });
    if (exporter_stop_) return;  // stop() writes the final snapshot itself
    lock.unlock();
    write_metric_snapshots();
    lock.lock();
  }
}

void QapproxServer::write_metric_snapshots() const {
  const std::string& path = obs::metrics_export_path();
  if (path.empty()) return;
  try {
    // Same shape as the at-exit QAPPROX_METRICS file, but atomic: a scraper
    // reading mid-rename sees the previous complete snapshot, never a
    // truncated one. The Prometheus exposition rides next to it.
    common::atomic_write_file(path, "{\"build\":" + obs::build_info_json() +
                                        ",\"metrics\":" + obs::metrics_json() +
                                        "}");
    common::atomic_write_file(path + ".prom", obs::metrics_prometheus());
  } catch (const common::Error& e) {
    QC_LOG_WARN("serve", "metrics snapshot failed: %s", e.what());
  }
}

void QapproxServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or fatal: accept loop ends
    }
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
    // Bound every blocking send: a peer that stops reading mid-frame stalls
    // its writer thread for at most this long before counting as dead, so
    // stop() can always flush and join.
    timeval send_timeout{};
    send_timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto conn = std::make_shared<ConnState>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    const std::uint64_t id = ++conn_seq_;
    LiveConn& live = live_[id];
    live.conn = conn;
    try {
      live.thread = std::thread([this, id, conn = std::move(conn)]() mutable {
        serve_connection(id, std::move(conn));
      });
    } catch (const std::system_error& e) {
      // Out of threads: refuse this one connection (its fd closes with the
      // last reference), keep serving the rest.
      QC_LOG_WARN("serve", "dropping a connection: %s", e.what());
      live_.erase(id);
    }
  }
}

void QapproxServer::serve_connection(std::uint64_t id,
                                     std::shared_ptr<ConnState> conn) {
  std::thread writer;
  try {
    writer = std::thread([this, conn] { writer_loop(conn); });
    read_loop(conn);
  } catch (const std::system_error& e) {  // out of threads: drop this one
    QC_LOG_WARN("serve", "dropping a connection: %s", e.what());
  }
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    conn->reader_done = true;
  }
  conn->q_cv.notify_all();  // the writer exits once the pending jobs reply
  if (writer.joinable()) writer.join();
  conn.reset();

  // Leave the live set; the fd closes with the last reference. A thread
  // cannot join itself: it parks its handle and joins the one parked before
  // it, so at most one ended connection thread is ever left unjoined.
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = live_.find(id);
    previous = std::exchange(ended_, std::move(it->second.thread));
    live_.erase(it);
    conns_cv_.notify_all();
  }
  if (previous.joinable()) previous.join();
}

void QapproxServer::read_loop(const std::shared_ptr<ConnState>& conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  while (!decoder.poisoned()) {
    while (auto frame = decoder.next()) {
      if (frame->oversized) {
        counters_.oversized_frames.fetch_add(1, std::memory_order_relaxed);
        send_reply(conn, make_error_reply(
                             json::Value(), "bad_request",
                             "frame of " + std::to_string(frame->declared_size) +
                                 " bytes exceeds the " +
                                 std::to_string(options_.max_frame_bytes) +
                                 "-byte limit"));
        continue;
      }
      handle_frame(conn, frame->payload);
    }
    if (decoder.poisoned()) break;
    if (!read_into_decoder(conn->fd, decoder)) break;  // EOF / error / stop()
  }
}

void QapproxServer::handle_frame(const std::shared_ptr<ConnState>& conn,
                                 const std::string& payload) {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  std::string error;
  json::Value salvage_id;
  std::optional<RequestEnvelope> env = parse_request(payload, &error, &salvage_id);
  if (!env) {
    counters_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    send_reply(conn, make_error_reply(salvage_id, "bad_request", error));
    return;
  }
  switch (env->type) {
    case RequestType::Ping: {
      counters_.ping.fetch_add(1, std::memory_order_relaxed);
      json::Value result = json::Value::object();
      result.set("pong", true);
      result.set("build", obs::build_info_summary());
      send_reply(conn, make_ok_reply(env->id, std::move(result)));
      return;
    }
    case RequestType::Stats: {
      counters_.stats.fetch_add(1, std::memory_order_relaxed);
      send_reply(conn, make_ok_reply(env->id, build_stats()));
      return;
    }
    case RequestType::Metrics: {
      counters_.metrics.fetch_add(1, std::memory_order_relaxed);
      std::string format = "json";
      if (env->params.is_object())
        format = env->params.get_string("format", "json");
      if (format != "json" && format != "prometheus") {
        send_reply(conn,
                   make_error_reply(env->id, "bad_request",
                                    "\"format\" must be \"json\" or "
                                    "\"prometheus\", got \"" + format + "\""));
        return;
      }
      send_reply(conn, make_ok_reply(env->id, build_metrics(format)));
      return;
    }
    case RequestType::Shutdown: {
      counters_.shutdown.fetch_add(1, std::memory_order_relaxed);
      json::Value result = json::Value::object();
      result.set("stopping", true);
      send_reply(conn, make_ok_reply(env->id, std::move(result)));
      request_shutdown();
      return;
    }
    case RequestType::Simulate:
    case RequestType::Synthesize:
      dispatch_job(conn, std::move(*env));
      return;
  }
}

void QapproxServer::dispatch_job(const std::shared_ptr<ConnState>& conn,
                                 RequestEnvelope env, bool recovered) {
  const bool is_simulate = env.type == RequestType::Simulate;
  (is_simulate ? counters_.simulate : counters_.synthesize)
      .fetch_add(1, std::memory_order_relaxed);
  const char* kind = is_simulate ? "simulate" : "synthesize";
  const std::string tenant = env.tenant;

  // Idempotency key, tenant-scoped so tenants cannot collide or probe each
  // other's replies. "" = keyless: not journaled, not deduplicated.
  const std::string key =
      env.idem.empty() ? std::string() : tenant + '\x1f' + env.idem;

  auto ticket = std::make_shared<JobTicket>();
  ticket->id = ticket_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ticket->kind = kind;
  ticket->tenant = tenant;
  ticket->key = key;
  ticket->request_id = env.id;
  if (env.deadline_ms > 0) {
    ticket->budget_ms = env.deadline_ms;
  } else {
    const double rem = common::Deadline::from_env().remaining_ms();
    if (std::isfinite(rem)) ticket->budget_ms = rem;
  }

  // Register where the reply goes. A keyless job's one reply rides on its
  // ticket. A keyed job registers with the ledger, which is also the dedup
  // point: a retry of an in-flight key attaches to the one execution, and a
  // completed key's retry gets the cached reply — re-stamped with this
  // request's id — never a second execution.
  ReplySink sink = job_sink(conn);
  if (key.empty()) {
    ticket->reply_to = std::move(sink);
  } else {
    if (ledger_->admit(key, ReplyWaiter{env.id, std::move(sink)}) !=
        JobLedger::Admission::kPrimary)
      return;
    // Journal ACCEPTED before submitting — durable, so a crash from here on
    // re-enqueues the job. The order matters: an ACCEPTED appended after the
    // job's own DONE would resurrect a completed job at recovery and execute
    // it a second time. Recovered jobs are already in the journal's
    // incomplete set and must not be re-accepted.
    if (!recovered) {
      json::Value request = json::Value::object();
      request.set("type", kind);
      request.set("id", env.id);
      request.set("tenant", env.tenant);
      request.set("idem", env.idem);
      if (env.deadline_ms > 0) request.set("deadline_ms", env.deadline_ms);
      request.set("params", env.params);
      ledger_->journal().record_accepted(key, request);
    }
  }

  // Admission: mint the job's trace root and stamp the clock here, on the
  // reader thread — queue wait starts now, not when a worker first sees the
  // job. The queued/exec phase identities are pre-minted children of the
  // root: both phases are committed after the fact (ManualSpan), and the
  // engine needs the exec identity as its parent *before* that span exists.
  // Ids are minted even with tracing off, so every reply can echo a trace id.
  const obs::TraceContext root = obs::mint_trace();
  const obs::TraceContext queued_ctx = obs::mint_child(root);
  const obs::TraceContext exec_ctx = obs::mint_child(root);
  const std::uint64_t admitted_ns = obs::now_ns();

  // The job owns the envelope; the reply goes out from the worker thread
  // through finish(), streaming in completion order.
  auto body = [this, env = std::move(env), is_simulate, kind, tenant, key,
               ticket, root, queued_ctx, exec_ctx,
               admitted_ns](const common::CancelToken& cancel) {
    const std::uint64_t start_ns = obs::now_ns();
    // Exec ids are unique per actual execution, across restarts (boot-id
    // prefixed): the chaos harness proves exactly-once execution by checking
    // every reply for one request id carries the same exec id.
    const std::string exec_id =
        boot_id_ + "-" +
        std::to_string(exec_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
    if (!key.empty()) ledger_->journal().record_started(key, exec_id);

    // Arm the watchdog: a per-job token linked to the scheduler's stop token
    // (strike 1 cancels this job alone), a progress beacon bumped by every
    // deadline poll (strike 2 requires the beacon frozen — the job is wedged
    // in non-polling code, not merely slow).
    ticket->cancel = common::CancelToken::linked(cancel);
    ticket->started_at = std::chrono::steady_clock::now();
    common::Deadline deadline = env.deadline_ms > 0
                                    ? common::Deadline::after_ms(env.deadline_ms)
                                    : common::Deadline::from_env();
    deadline = deadline.with_token(ticket->cancel)
                   .with_progress(ticket->beacon);
    watchdog_->watch(ticket);

    json::Value reply;
    const char* status = "ok";
    try {
      const JobOutcome outcome =
          is_simulate ? run_simulate_job(env.params, deadline, exec_ctx)
                      : run_synthesize_job(env.params, deadline, exec_ctx);
      status = outcome.degraded ? "degraded" : "ok";
      reply = outcome.degraded
                  ? make_degraded_reply(env.id, outcome.result, outcome.why)
                  : make_ok_reply(env.id, outcome.result);
    } catch (const std::exception& e) {
      // The library's error taxonomy names the kind (timeout, contract,
      // synthesis, simulation); anything else, a bare Error too, is internal.
      const auto* error = dynamic_cast<const common::Error*>(&e);
      const std::string tag = error != nullptr ? error->kind() : "error";
      status = "error";
      reply = make_error_reply(env.id, tag == "error" ? "internal" : tag,
                               e.what());
    }
    const std::uint64_t exec_end_ns = obs::now_ns();
    watchdog_->release(ticket);

    // Every job reply carries its server-side timeline, so clients can split
    // their measured latency into queue wait vs execution without a second
    // request. reply_ns covers reply *construction* (the frame write itself
    // is only measurable afterwards; its true cost goes to the
    // serve.job.reply span and the serve.job.reply_ns rolling histogram).
    json::Value timeline = json::Value::object();
    timeline.set("trace_id", trace_id_hex(root.trace_id));
    timeline.set("queued_ns", start_ns - admitted_ns);
    timeline.set("exec_ns", exec_end_ns - start_ns);
    const std::uint64_t reply_start_ns = obs::now_ns();
    timeline.set("reply_ns", reply_start_ns - exec_end_ns);
    reply.set("timeline", std::move(timeline));
    reply.set("exec", exec_id);

    // Losing the arbitration means the watchdog already answered (and
    // journaled) for this job while this thread was wedged — suppress
    // everything and hand the slot accounting back to the scheduler.
    if (!finish(*ticket, reply)) {
      scheduler_.note_wedged_worker_returned();
      return;
    }
    if (reply.find("error") != nullptr)
      counters_.job_errors.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t end_ns = obs::now_ns();

    // Commit the phase spans now that every interval is known: one connected
    // trace per job — serve.job{queued,exec,reply} under the root, with the
    // engine's exec.run tree already parented at exec_ctx.
    {
      obs::ManualSpan queued("serve.job.queued", queued_ctx, root.span_id);
      queued.commit(admitted_ns, start_ns);
      obs::ManualSpan exec_span("serve.job.exec", exec_ctx, root.span_id);
      exec_span.commit(start_ns, exec_end_ns);
      obs::ManualSpan reply_span("serve.job.reply", obs::mint_child(root),
                                 root.span_id);
      reply_span.commit(reply_start_ns, end_ns);
      obs::ManualSpan job("serve.job", root, 0);
      job.arg("kind", std::string(kind));
      job.arg("tenant", tenant);
      job.arg("status", std::string(status));
      job.commit(admitted_ns, end_ns);
    }

    record_job_metrics(kind, tenant, end_ns - admitted_ns,
                       start_ns - admitted_ns, exec_end_ns - start_ns);
    obs::rolling_histogram("serve.job.reply_ns").record(end_ns - reply_start_ns);
    // Degraded/error traces always survive; healthy ones only if they are
    // among the window's slowest.
    tail_.observe(root.trace_id, end_ns - admitted_ns, end_ns, status,
                  std::strcmp(status, "ok") != 0);
  };
  std::string reject_reason;
  if (!scheduler_.submit(tenant, std::move(body), &reject_reason)) {
    // Nothing ran. For a keyed job the ledger also closes the key in the
    // journal (recovery must not re-enqueue it) and bounces the retries that
    // attached between admission and this rejection.
    const json::Value bounce =
        make_error_reply(ticket->request_id, "overloaded", reject_reason);
    if (key.empty()) {
      if (ticket->reply_to) ticket->reply_to(bounce);
    } else {
      ledger_->reject(key, bounce);
    }
  }
}

void QapproxServer::record_job_metrics(const char* kind,
                                       const std::string& tenant,
                                       std::uint64_t latency_ns,
                                       std::uint64_t queue_wait_ns,
                                       std::uint64_t exec_ns) {
  const auto rec = [&](const std::string& name, std::uint64_t v) {
    obs::rolling_histogram(name, kMetricsWindowNs).record(v);
  };
  // Per kind, per tenant, then the aggregates, latency last: a reader that
  // sees the aggregate latency sample sees every other sample of the job.
  for (const std::string& by : {std::string(".kind.") + kind,
                                ".tenant." + tenant_label(tenant),
                                std::string()}) {
    rec("serve.job.queue_wait_ns" + by, queue_wait_ns);
    rec("serve.job.exec_ns" + by, exec_ns);
    rec("serve.job.latency_ns" + by, latency_ns);
  }
}

void QapproxServer::send_reply(const std::shared_ptr<ConnState>& conn,
                               const json::Value& reply) {
  if (!conn->write_ok.load(std::memory_order_relaxed)) return;
  std::string payload = reply.dump();
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    if (conn->queued_bytes + payload.size() > options_.write_budget_bytes) {
      overflow = true;
      conn->queue.clear();
      conn->queued_bytes = 0;
    } else {
      conn->queued_bytes += payload.size();
      conn->queue.push_back(std::move(payload));
    }
  }
  if (overflow) {
    // Slow reader: the client cannot keep up with its own replies. Cut it
    // off at the budget — buffering without bound would let one stalled
    // client hold reply memory for the whole server hostage.
    conn->write_ok.store(false, std::memory_order_relaxed);
    counters_.slow_disconnects.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.conn.slow_disconnects").add(1);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  conn->q_cv.notify_all();
}

void QapproxServer::writer_loop(const std::shared_ptr<ConnState>& conn) {
  std::unique_lock<std::mutex> lock(conn->q_mu);
  while (true) {
    conn->q_cv.wait(lock, [&] {
      return !conn->queue.empty() ||
             !conn->write_ok.load(std::memory_order_relaxed) ||
             (conn->reader_done && conn->pending_jobs == 0);
    });
    if (!conn->write_ok.load(std::memory_order_relaxed)) return;
    // Queue drained with the reader gone and every job replied: no reply can
    // arrive any more.
    if (conn->queue.empty()) return;
    std::string payload = std::move(conn->queue.front());
    conn->queue.pop_front();
    conn->queued_bytes -= payload.size();
    lock.unlock();
    try {
      write_frame_fd(conn->fd, payload);
      counters_.replies.fetch_add(1, std::memory_order_relaxed);
    } catch (const common::Error&) {
      // Client went away (or SO_SNDTIMEO fired on a wedged peer); remaining
      // replies for this connection are dropped and counted, never retried
      // against a dead socket.
      conn->write_ok.store(false, std::memory_order_relaxed);
      counters_.write_failures.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

QapproxServer::ReplySink QapproxServer::job_sink(
    const std::shared_ptr<ConnState>& conn) {
  // Journal-recovered jobs have no connection: their reply lives in the
  // replay cache, waiting for the client's retry.
  if (conn == nullptr) return {};
  // Pending-job accounting: the writer stays alive until the reader is done
  // AND every dispatched job has queued its reply.
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    ++conn->pending_jobs;
  }
  return [this, conn](const json::Value& reply) {
    send_reply(conn, reply);
    {
      std::lock_guard<std::mutex> lock(conn->q_mu);
      --conn->pending_jobs;
    }
    conn->q_cv.notify_all();
  };
}

bool QapproxServer::finish(const JobTicket& ticket, const json::Value& reply) {
  // Exactly-one-reply arbitration between the worker and the reaper:
  // whoever flips the flag first owns the reply.
  if (ticket.replied->exchange(true)) return false;
  if (ticket.key.empty()) {
    if (ticket.reply_to) ticket.reply_to(reply);
  } else {
    ledger_->complete(ticket.key, reply);
  }
  return true;
}

void QapproxServer::reap_job(const std::shared_ptr<JobTicket>& ticket) {
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                ticket->started_at)
                                .count();
  char msg[160];
  std::snprintf(msg, sizeof(msg),
                "%s job ran %.0f ms against a %.0f ms budget without polling "
                "its deadline; slot reaped",
                ticket->kind.c_str(), elapsed_ms, ticket->budget_ms);
  json::Value reply = make_error_reply(ticket->request_id, "reaped", msg);
  reply.set("timed_out", true);
  // For a keyed job the reply burns the key: the wedged thread may yet
  // complete its side effects, so a retry must replay this error, never
  // re-execute. A fresh attempt needs a fresh idempotency key. Losing the
  // arbitration means the worker replied between the scan and this call.
  if (!finish(*ticket, reply)) return;
  counters_.reaped.fetch_add(1, std::memory_order_relaxed);
  // Replace the wedged slot so throughput survives the loss; the surplus
  // worker retires once the stuck thread finally returns.
  scheduler_.spawn_surplus_worker();
}

void QapproxServer::replay_recovered_jobs() {
  std::vector<RecoveredJob> jobs = std::move(ledger_->journal().recovered());
  for (RecoveredJob& job : jobs) {
    std::string error;
    json::Value salvage_id;
    std::optional<RequestEnvelope> env =
        parse_request(job.request.dump(), &error, &salvage_id);
    if (!env || (env->type != RequestType::Simulate &&
                 env->type != RequestType::Synthesize)) {
      QC_LOG_WARN("serve", "journal: dropping unusable recovered job %s: %s",
                  job.key.c_str(), error.c_str());
      continue;
    }
    counters_.recovered_jobs.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.journal.replayed_jobs").add(1);
    // No connection: the reply lands in the replay cache for the client's
    // retry. recovered=true keeps the journal's incomplete entry as-is.
    dispatch_job(nullptr, std::move(*env), /*recovered=*/true);
  }
}

void QapproxServer::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void QapproxServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void QapproxServer::stop() {
  if (!running_.exchange(false)) {
    request_shutdown();
    return;
  }
  request_shutdown();

  // 1. Stop accepting: shutting the listener down unblocks accept(). The fd
  // is closed only once the accept thread is joined, so accept() never sees
  // it change, let alone a reused descriptor number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Stop the watchdog before draining: a reap callback racing teardown
  // would touch the journal and scheduler mid-destruction.
  if (watchdog_) watchdog_->stop();

  // 3. Drain the scheduler: every accepted job runs under a cancelled token
  // and queues its reply while the connections are still alive.
  scheduler_.stop();

  // 4. Shut down the read side of every live connection and wait for the
  // live set to drain: each reader answers the frames it had buffered (a
  // job submitted now is refused "overloaded"), its writer flushes every
  // queued reply, and the connection leaves the set.
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    for (const auto& [id, live] : live_) ::shutdown(live.conn->fd, SHUT_RD);
    conns_cv_.wait(lock, [this] { return live_.empty(); });
    last = std::move(ended_);
  }
  if (last.joinable()) last.join();  // each ended thread joined its previous

  // 5. Stop the metrics exporter and leave final observability artifacts:
  // the pending tail-sample window, one last metrics snapshot, and the
  // armed QAPPROX_TRACE / QAPPROX_METRICS exports — a SIGTERM'd daemon must
  // not rely on atexit ordering to preserve its soak evidence.
  {
    std::lock_guard<std::mutex> lock(exporter_mu_);
    exporter_stop_ = true;
  }
  exporter_cv_.notify_all();
  if (exporter_thread_.joinable()) exporter_thread_.join();
  tail_.flush();
  if (options_.metrics_period_ms > 0.0) write_metric_snapshots();
  obs::flush_exports();

  // 6. Compact the journal: appends are quiesced, so a clean drain leaves a
  // DONE-only log (the CI chaos gate walks the frames and asserts exactly
  // that).
  try {
    ledger_->journal().compact();
  } catch (const common::Error& e) {
    QC_LOG_WARN("serve", "journal compaction failed: %s", e.what());
  }

  // 7. Snapshot the synthesis cache for the next warm start.
  if (!options_.synth_cache_dir.empty()) {
    try {
      const std::size_t n = synth::synth_cache_save(options_.synth_cache_dir);
      QC_LOG_INFO("serve", "saved %zu synthesis-cache entries to %s", n,
                  options_.synth_cache_dir.c_str());
    } catch (const common::Error& e) {
      QC_LOG_WARN("serve", "synthesis-cache snapshot failed: %s", e.what());
    }
  }
  ::unlink(options_.socket_path.c_str());
}

}  // namespace qc::serve
