// serve_mix: an in-process QapproxServer on a private socket and journal
// directory (both relative to the run directory), driven open-loop at a
// fixed rate by one sender thread over (workers - 1) client connections,
// each drained by its own receiver thread, so the load uses no more threads
// than the server has workers (the library pool size, QAPPROX_THREADS).
//
// The seeded job stream repeats a fixed block of kBlock jobs in shuffled
// order, so every seed offers the same mix:
//   - preset simulate jobs from a fixed pool (tfim / grover / mct, DM and
//     ideal, two devices): after first use, the engine cache-read path;
//   - distinct random inline-qasm circuits: the cache-insert path;
//   - hardware-mode trajectory jobs;
//   - partition synthesize jobs on 8-qubit TFIM: partitioner, block dedupe
//     and synthesis cache;
//   - idempotency-keyed jobs, some resent under the same key later: journal
//     writes beside replay-cache reads.
// Latency runs from each job's due time, so a stalled sender or server
// charges every job scheduled behind the stall.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "common/driver.hpp"
#include "common/thread_pool.hpp"
#include "exec/engine.hpp"
#include "metrics/distribution.hpp"
#include "algos/mct.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/jobs.hpp"
#include "serve/server.hpp"
#include "sim/observables.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace driver = qc::common::driver;
namespace exec = qc::exec;
namespace obs = qc::obs;
namespace serve = qc::serve;

/// The latency limit goodput is counted against (the arrival rate is
/// Options::rate_per_s).
constexpr double kLatencyLimitMs = 500.0;
/// Composition of one block of the job stream.
constexpr int kBlock = 50;
constexpr int kPresetJobs = 26;
constexpr int kQasmJobs = 10;
constexpr int kHardwareJobs = 1;
constexpr int kPartitionJobs = 1;
constexpr int kKeyedJobs = 9;
constexpr int kResentJobs = 3;
static_assert(kPresetJobs + kQasmJobs + kHardwareJobs + kPartitionJobs + kKeyedJobs +
                  kResentJobs == kBlock);
/// CPU time per job and latency percentiles are taken per window of this
/// many seconds of the schedule (500 jobs at 200 jobs/s, so five beyond the
/// p99) and the median over windows is reported: one stall, or the cold
/// caches of the first window, moves one window, not the run.
constexpr double kWindowS = 2.5;
/// A resend goes out at least this many jobs after its original.
constexpr std::size_t kResendLag = 30;

enum class JobKind { Preset, Qasm, Hardware, Partition, Keyed, Resent };

const char* kind_name(JobKind k) {
  switch (k) {
    case JobKind::Preset: return "preset";
    case JobKind::Qasm: return "qasm";
    case JobKind::Hardware: return "hardware";
    case JobKind::Partition: return "partition";
    case JobKind::Keyed: return "keyed";
    case JobKind::Resent: return "resent";
  }
  return "?";
}

struct Job {
  JobKind kind = JobKind::Preset;
  json::Value request;
  std::size_t original = 0;  // Resent: index of the keyed job it repeats
  double due_s = 0.0;
};

std::string random_qasm(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> qubit(0, 2), gate(0, 3);
  std::uniform_real_distribution<double> angle(-3.14159, 3.14159);
  std::ostringstream q;
  q.precision(17);
  q << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n";
  for (int i = 0; i < 14; ++i) {
    const int a = qubit(rng);
    switch (gate(rng)) {
      case 0: q << "h q[" << a << "];\n"; break;
      case 1: q << "rz(" << angle(rng) << ") q[" << a << "];\n"; break;
      case 2: q << "ry(" << angle(rng) << ") q[" << a << "];\n"; break;
      default: q << "cx q[" << a << "],q[" << (a + 1) % 3 << "];\n"; break;
    }
  }
  return q.str();
}

/// The preset pool every seed draws from: fixed, so the stream's cost mix
/// does not depend on the seed, only its order does.
std::vector<json::Value> preset_pool() {
  std::vector<json::Value> pool;
  auto add = [&](const char* workload, int steps, int marked, const char* device,
                 const char* mode) {
    json::Value p = json::Value::object();
    p.set("workload", workload);
    p.set("qubits", 3);
    if (steps > 0) p.set("steps", steps);
    if (marked >= 0) p.set("marked", marked);
    p.set("device", device);
    p.set("mode", mode);
    p.set("shots", 256);
    p.set("seed", 11);
    pool.push_back(std::move(p));
  };
  for (const char* device : {"toronto", "santiago"}) {
    for (int steps = 1; steps <= 5; ++steps) add("tfim", steps, -1, device, "simulator");
    for (int marked : {3, 7}) add("grover", 0, marked, device, "simulator");
    add("mct", 0, -1, device, "simulator");
  }
  add("tfim", 3, -1, "toronto", "ideal");
  add("grover", 0, 7, "santiago", "ideal");
  return pool;
}

json::Value job_request(const std::string& type, json::Value params) {
  json::Value r = json::Value::object();
  r.set("type", type);
  r.set("tenant", "bench");
  r.set("params", std::move(params));
  return r;
}

/// The seeded schedule: `count` jobs due at i / rate_per_s.
std::vector<Job> make_schedule(std::uint64_t seed, std::size_t count, double rate_per_s) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const std::vector<json::Value> pool = preset_pool();
  // Presets are dealt from a shuffled deck so every preset is used equally.
  std::vector<std::size_t> deck;
  auto deal = [&]() -> const json::Value& {
    if (deck.empty()) {
      for (std::size_t i = 0; i < pool.size(); ++i) deck.push_back(i);
      std::shuffle(deck.begin(), deck.end(), rng);
    }
    const std::size_t i = deck.back();
    deck.pop_back();
    return pool[i];
  };
  auto keyed_request = [&](std::uint64_t key) {
    json::Value r = job_request("simulate", deal());
    r.set("idem", "k-" + std::to_string(seed) + "-" + std::to_string(key));
    return r;
  };

  std::vector<Job> jobs;
  std::vector<std::size_t> keyed;  // indices of keyed jobs not yet resent
  std::uint64_t next_key = 0, partitions = 0;
  while (jobs.size() < count) {
    // The heavy jobs (trajectories, partition synthesis) sit at fixed,
    // evenly spaced slots, so they never queue behind each other and the
    // tail they set does not depend on the seed; the light jobs fill the
    // other slots in seeded order.
    std::vector<JobKind> light;
    const std::pair<JobKind, int> mix[] = {{JobKind::Preset, kPresetJobs},
                                           {JobKind::Qasm, kQasmJobs},
                                           {JobKind::Keyed, kKeyedJobs},
                                           {JobKind::Resent, kResentJobs}};
    for (const auto& [kind, n] : mix) light.insert(light.end(), static_cast<std::size_t>(n), kind);
    std::shuffle(light.begin(), light.end(), rng);
    std::vector<JobKind> block;
    for (int slot = 0; slot < kBlock; ++slot) {
      if (slot % (kBlock / kHardwareJobs) == 0) {
        block.push_back(JobKind::Hardware);
      } else if (slot % (kBlock / kPartitionJobs) == kBlock / kHardwareJobs / 2) {
        block.push_back(JobKind::Partition);
      } else {
        block.push_back(light.back());
        light.pop_back();
      }
    }
    for (JobKind kind : block) {
      if (jobs.size() == count) break;
      Job job;
      job.kind = kind;
      switch (kind) {
        case JobKind::Preset:
          job.request = job_request("simulate", deal());
          break;
        case JobKind::Qasm: {
          json::Value p = json::Value::object();
          p.set("workload", "qasm");
          p.set("qasm", random_qasm(rng));
          p.set("device", "santiago");
          p.set("mode", "simulator");
          job.request = job_request("simulate", std::move(p));
          break;
        }
        case JobKind::Hardware: {
          json::Value p = json::Value::object();
          p.set("workload", "tfim");
          p.set("qubits", 3);
          p.set("steps", 5);
          p.set("device", "toronto");
          p.set("mode", "hardware");
          p.set("shots", 128);
          p.set("seed", static_cast<int>(rng() % 100000));
          job.request = job_request("simulate", std::move(p));
          break;
        }
        case JobKind::Partition: {
          // Steps cycle 2, 3, 4: the first of each misses the synthesis
          // cache, later ones hit it.
          json::Value p = json::Value::object();
          p.set("preset", "partition");
          p.set("qubits", 8);
          p.set("steps", static_cast<int>(2 + partitions++ % 3));
          p.set("fast", true);
          p.set("max_circuits", 4);
          job.request = job_request("synthesize", std::move(p));
          break;
        }
        case JobKind::Keyed:
          job.request = keyed_request(next_key++);
          keyed.push_back(jobs.size());
          break;
        case JobKind::Resent:
          // Resend the oldest keyed job far enough back; without one yet,
          // send a fresh keyed job instead (keeps the block size fixed).
          if (!keyed.empty() && jobs.size() - keyed.front() >= kResendLag) {
            job.original = keyed.front();
            keyed.erase(keyed.begin());
            job.request = jobs[job.original].request;
          } else {
            job.kind = JobKind::Keyed;
            job.request = keyed_request(next_key++);
            keyed.push_back(jobs.size());
          }
          break;
      }
      job.due_s = static_cast<double>(jobs.size()) / rate_per_s;
      job.request.set("id", jobs.size());
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct Reply {
  json::Value body;
  Clock::time_point at;
  int count = 0;
};

json::Value call(serve::Client& client, const std::string& type) {
  json::Value r = json::Value::object();
  r.set("id", type);
  r.set("type", type);
  return client.call(r);
}

/// The simulate reply a direct engine run of the same request must equal:
/// the metric (when the workload has one) and the top outcomes.
std::string compare_direct(const json::Value& params, const json::Value& result,
                           exec::ExecutionEngine& engine) {
  const serve::Workload w = serve::build_workload(params);
  exec::RunRequest req;
  req.circuit = w.circuit;
  req.config = driver::execution_config(params.get_string("device", "santiago"),
                                        params.get_string("mode", "simulator"));
  req.config.shots = static_cast<std::size_t>(params.get_int("shots", 8192));
  req.config.seed = static_cast<std::uint64_t>(params.get_int("seed", 11));
  const exec::RunResult run = engine.run(req);
  const std::vector<double>& p = run.probabilities;
  double metric = NAN;
  if (w.metric == "magnetization") metric = qc::sim::average_z_magnetization(p);
  if (w.metric == "success_probability")
    metric = qc::metrics::success_probability(p, static_cast<std::size_t>(w.marked));
  if (w.metric == "js_to_ideal")
    metric = qc::metrics::js_distance(
        p, qc::algos::mct_battery_ideal_distribution(w.circuit.num_qubits()));
  if (!w.metric.empty() && result.get_number(w.metric, NAN) != metric)
    return w.metric + " differs from a direct engine run";
  const json::Value* top = result.find("top_outcomes");
  if (top == nullptr || top->size() == 0) return "no top_outcomes";
  for (const json::Value& o : top->as_array()) {
    const std::string bits = o.get_string("outcome", "");
    std::size_t index = 0;
    for (char c : bits) index = index * 2 + (c == '1' ? 1 : 0);
    if (index >= p.size() || o.get_number("p", NAN) != p[index])
      return "outcome " + bits + " differs from a direct engine run";
  }
  return "";
}

}  // namespace

void run_serve_workload(const Options& opts, Result& out) {
  // ---- setup: runtime, devices, server (journal open), connections.
  driver::init_runtime();
  for (const char* d : {"santiago", "toronto"}) driver::device(d);
  std::filesystem::remove_all("journal");
  std::filesystem::remove("serve.sock");
  serve::ServerOptions so;
  so.socket_path = "serve.sock";
  so.journal_dir = "journal";
  const std::size_t workers = qc::common::ThreadPool::global().size();
  so.scheduler.workers = workers;
  serve::QapproxServer server(so);
  server.start();
  const std::size_t connections = std::max<std::size_t>(1, workers - 1);
  std::vector<serve::Client> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(serve::Client::connect(so.socket_path));
    if (call(clients.back(), "ping").get_string("status", "") != "ok")
      throw std::runtime_error("server did not answer ping");
  }
  const std::vector<Job> jobs = make_schedule(
      opts.seed, static_cast<std::size_t>(std::llround(opts.seconds * opts.rate_per_s)),
      opts.rate_per_s);
  announce_ready();
  if (opts.setup_only) return;

  if (opts.trace) {
    obs::set_timing_enabled(true);
    obs::set_trace_capacity(1 << 16);
    obs::enable_tracing();
  }
  const json::Value stats_before = call(clients[0], "stats");

  // ---- open loop: one sender on the schedule, one receiver per connection.
  std::vector<Reply> replies(jobs.size());
  std::vector<Clock::time_point> sent_at(jobs.size());
  std::mutex mu;
  std::uint64_t unknown_ids = 0;
  std::vector<std::uint64_t> expected(connections, 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) ++expected[i % connections];
  std::vector<obs::TraceContext> job_trace(jobs.size());
  if (opts.trace)
    for (obs::TraceContext& t : job_trace) t = obs::mint_trace();
  // The schedule starts shortly after the receivers; obs timestamps of due
  // times (for the per-job spans) are taken from the same instant.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const std::uint64_t t0_ns = obs::now_ns() + 20'000'000;
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(jobs[i].due_s));
  };

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < connections; ++c)
    receivers.emplace_back([&, c] {
      for (std::uint64_t n = 0; n < expected[c]; ++n) {
        std::optional<json::Value> reply;
        try {
          reply = clients[c].recv();
        } catch (const std::exception&) {
        }
        if (!reply) return;
        const Clock::time_point now = Clock::now();
        const json::Value* id = reply->find("id");
        std::lock_guard<std::mutex> lock(mu);
        if (id == nullptr || !id->is_number() || id->as_uint64() >= jobs.size()) {
          ++unknown_ids;
          continue;
        }
        const std::size_t i = id->as_uint64();
        Reply& r = replies[i];
        if (++r.count == 1) {
          r.body = std::move(*reply);
          r.at = now;
          if (opts.trace) {
            obs::ManualSpan span("loadgen.job", job_trace[i], 0);
            span.arg("kind", std::string(kind_name(jobs[i].kind)));
            span.commit(t0_ns + static_cast<std::uint64_t>(jobs[i].due_s * 1e9),
                        t0_ns + static_cast<std::uint64_t>(seconds_between(t0, now) * 1e9));
          }
        }
      }
    });

  auto window_of = [&](std::size_t i) {
    return static_cast<std::size_t>(jobs[i].due_s / kWindowS);
  };
  // Process CPU time (server, sender and receivers alike) as each window's
  // first job goes out, and once more after the last reply.
  std::vector<double> window_cpu_s;
  std::vector<double> late_ms(jobs.size(), 0.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::this_thread::sleep_until(due(i));
    if (i == 0 || window_of(i) != window_of(i - 1)) window_cpu_s.push_back(process_cpu_s());
    sent_at[i] = Clock::now();
    late_ms[i] = seconds_between(due(i), sent_at[i]) * 1e3;
    try {
      clients[i % connections].send(jobs[i].request);
    } catch (const std::exception& e) {
      out.notes.push_back(std::string("send failed: ") + e.what());
      break;
    }
  }
  // Every reply should be back well inside this; past it, unblock the
  // receivers and count what is missing as failed.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    bool done;
    {
      std::lock_guard<std::mutex> lock(mu);
      done = std::all_of(replies.begin(), replies.end(), [](const Reply& r) { return r.count > 0; });
    }
    if (done || Clock::now() > give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  window_cpu_s.push_back(process_cpu_s());
  for (serve::Client& c : clients) ::shutdown(c.fd(), SHUT_RD);
  for (std::thread& t : receivers) t.join();
  const Clock::time_point finished = Clock::now();

  serve::Client probe = serve::Client::connect(so.socket_path);
  const json::Value stats = call(probe, "stats");
  probe.close();
  clients.clear();
  server.stop();
  if (opts.trace) {
    obs::disable_tracing();
    if (!obs::write_chrome_trace("trace.json")) out.notes.push_back("could not write trace.json");
  }

  // ---- output checks: one correlated ok reply per job, simulate replies
  // equal to direct engine runs, resends replaying the original execution.
  exec::ExecutionEngine direct(exec::EngineOptions{workers});
  std::map<std::string, std::string> verdicts;  // request params -> mismatch
  std::vector<bool> ok(jobs.size(), false);
  Clock::time_point last_reply = t0;
  out.attempted = jobs.size();
  if (unknown_ids > 0)
    out.fail(std::to_string(unknown_ids) + " replies with unknown ids", unknown_ids);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Reply& r = replies[i];
    const std::string tag = std::string(kind_name(job.kind)) + " job " + std::to_string(i);
    if (r.count != 1) {
      out.fail(tag + ": " + std::to_string(r.count) + " replies");
      continue;
    }
    last_reply = std::max(last_reply, r.at);
    if (r.body.get_string("status", "") != "ok") {
      const json::Value* err = r.body.find("error");
      out.fail(tag + ": status " + r.body.get_string("status", "?") +
               (err ? " " + err->get_string("kind", "") : ""));
      continue;
    }
    const json::Value* result = r.body.find("result");
    std::string why;
    if (result == nullptr) {
      why = "no result";
    } else if (job.kind == JobKind::Partition) {
      if (result->get_number("num_circuits", 0) < 1) why = "empty harvest";
    } else if (job.kind == JobKind::Resent) {
      const Reply& orig = replies[job.original];
      if (orig.count != 1 || orig.body.get_string("exec", "a") != r.body.get_string("exec", "b"))
        why = "resent key did not replay the original execution";
    } else {
      const json::Value& params = *job.request.find("params");
      const std::string key = params.dump();
      auto it = verdicts.find(key);
      if (it == verdicts.end()) it = verdicts.emplace(key, compare_direct(params, *result, direct)).first;
      why = it->second;
    }
    if (!why.empty()) {
      out.fail(tag + ": " + why);
      continue;
    }
    ok[i] = true;
  }
  const json::Value* durability = stats.find("result") ? stats.find("result")->find("durability") : nullptr;
  const double duplicate_exec = durability ? durability->get_number("duplicate_exec", -1) : -1;
  if (duplicate_exec != 0) out.fail("duplicate_exec = " + std::to_string(duplicate_exec));

  // ---- end-to-end metrics.
  std::vector<double> latency_ms(jobs.size());
  double good = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // A job without a reply counts as missing the limit by the whole run.
    latency_ms[i] = replies[i].count > 0 ? seconds_between(due(i), replies[i].at) * 1e3
                                         : seconds_between(due(i), finished) * 1e3;
    if (ok[i] && latency_ms[i] <= kLatencyLimitMs) good += 1.0;
  }
  // The run spans the schedule plus the drain behind its last job.
  const double run_s = seconds_between(t0, last_reply);
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t w = window_of(i);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency_ms[i]);
  }
  std::vector<double> cpu_ms_per_job, p50s, p99s;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w + 1 < window_cpu_s.size())
      cpu_ms_per_job.push_back((window_cpu_s[w + 1] - window_cpu_s[w]) * 1e3 /
                               static_cast<double>(windows[w].size()));
    p50s.push_back(percentile(windows[w], 0.50));
    p99s.push_back(percentile(windows[w], 0.99));
  }
  if (!opts.trace) {
    out.metric("cpu_ms_per_op", median(cpu_ms_per_job), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.notes.push_back(std::to_string(jobs.size()) + " jobs at " + std::to_string(opts.rate_per_s) +
                        "/s, limit " + std::to_string(kLatencyLimitMs) + " ms");
    return;
  }

  // ---- per-layer breakdown from the public replies: per-job timelines and
  // the stats reply (its metrics tree is the server's registry).
  std::vector<double> queued_ms, exec_sim_ms, exec_synth_ms, reply_ms;
  double transpiled_cx = 0.0;
  std::map<std::string, std::pair<double, double>> by_kind;  // kind -> jobs, exec ms
  double exec_total_ms = 0.0;
  for (const Job& job : jobs) by_kind[kind_name(job.kind)].first += 1.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Reply& r = replies[i];
    if (r.count == 0) continue;
    const json::Value* tl = r.body.find("timeline");
    if (tl == nullptr || r.body.get_bool("replayed", false)) continue;
    const double q = tl->get_number("queued_ns", 0) / 1e6;
    const double e = tl->get_number("exec_ns", 0) / 1e6;
    queued_ms.push_back(q);
    (jobs[i].request.get_string("type", "") == "synthesize" ? exec_synth_ms : exec_sim_ms)
        .push_back(e);
    reply_ms.push_back(seconds_between(sent_at[i], r.at) * 1e3 - q - e);
    by_kind[kind_name(jobs[i].kind)].second += e;
    exec_total_ms += e;
    if (const json::Value* res = r.body.find("result"))
      transpiled_cx += res->get_number("transpiled_cx", 0);
  }
  // Where the mix's server time goes: each kind's share of the jobs and of
  // the summed execution time (the README's "Job mix" table).
  std::ostringstream mix;
  mix.precision(3);
  mix << "job kind: share of jobs / of server exec time:";
  for (const auto& [kind, v] : by_kind)
    mix << " " << kind << " " << 100.0 * v.first / static_cast<double>(jobs.size()) << "% / "
        << (exec_total_ms > 0 ? 100.0 * v.second / exec_total_ms : 0.0) << "%";
  out.notes.push_back(mix.str());
  const json::Value& sr = *stats.find("result");
  const Counts d = delta(counts_from_json(*sr.find("metrics")),
                         counts_from_json(*stats_before.find("result")->find("metrics")));
  double entries = 0.0;
  if (const json::Value* ec = sr.find("engine_cache"))
    for (const auto& [name, v] : ec->members()) entries += v.get_number("entries", 0);
  MeasuredLayers measured;
  measured.transpiled_cx = transpiled_cx;
  measured.cache_entries = entries;
  measured.wall_s = seconds_between(t0, finished);
  measured.workers = workers;
  add_layer_metrics(out, d, measured);
  // Wall-clock latency and goodput: what a client sees, but too dependent
  // on the host's other tenants to bound (README, "Noise on a shared host").
  out.metric("wall.latency_p50_ms", median(p50s), "ms");
  out.metric("wall.latency_p99_ms", median(p99s), "ms");
  out.metric("wall.goodput_per_s", run_s > 0 ? good / run_s : 0.0, "1/s");

  const json::Value* sched = sr.find("scheduler");
  const json::Value* requests = sr.find("requests");
  const json::Value* journal = sr.find("journal");
  const json::Value* replay = sr.find("replay_cache");
  const double replay_hits = replay ? replay->get_number("hits", 0) : 0;
  const double replay_total = replay_hits + (replay ? replay->get_number("misses", 0) : 0);
  out.metric("serve.queue_wait_ms.p50", percentile(queued_ms, 0.50), "ms");
  out.metric("serve.queue_wait_ms.p99", percentile(queued_ms, 0.99), "ms");
  out.metric("serve.exec_ms.simulate.p99", percentile(exec_sim_ms, 0.99), "ms");
  out.metric("serve.exec_ms.synthesize.p99", percentile(exec_synth_ms, 0.99), "ms");
  out.metric("serve.reply_ms.p99", percentile(reply_ms, 0.99), "ms");
  out.metric("serve.rejected",
             (sched ? sched->get_number("rejected", 0) : 0) +
                 (requests ? requests->get_number("overloaded", 0) : 0),
             "count");
  out.metric("serve.scheduler.peak_queued", sched ? sched->get_number("peak_queued", 0) : 0,
             "count");
  out.metric("serve.journal.sync_calls", journal ? journal->get_number("sync_calls", 0) : 0,
             "count");
  out.metric("serve.replay.hit_rate", replay_total > 0 ? replay_hits / replay_total : 0.0,
             "ratio");
  out.metric("synth.cache.entries",
             sr.find("synth_cache") ? sr.find("synth_cache")->get_number("entries", 0) : 0,
             "count");
  out.metric("loadgen.late_p99_ms", percentile(late_ms, 0.99), "ms");
}

}  // namespace perfbench
