// Observability layer: log filtering and sinks, metrics exactness under
// concurrency, span tracing from a multi-threaded run_batch, and the
// QAPPROX_THREADS / build-info satellite plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "algos/grover.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "exec/engine.hpp"
#include "noise/catalog.hpp"
#include "obs/obs.hpp"

namespace qc {
namespace {

// ---- a minimal JSON parser --------------------------------------------------
// Just enough to assert that the exporters emit well-formed JSON and to walk
// the resulting tree. Throws std::runtime_error on malformed input, so a
// parse failure fails the test with the offending position.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) + ": " +
                             why);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': {
        literal("null");
        return JsonValue{};
      }
      default: return number();
    }
  }
  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }
  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::Bool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }
  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("expected digit");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      digits();
    }
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            out += '?';  // code point itself is irrelevant to these tests
            pos_ += 4;
            break;
          default: fail("unknown escape");
        }
      } else {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
        out += c;
      }
    }
  }
  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

// ---- log sink capture -------------------------------------------------------

std::vector<std::pair<obs::LogLevel, std::string>> g_captured;

void capture_sink(obs::LogLevel level, const char* module, const char* message) {
  g_captured.emplace_back(level, std::string(module) + ": " + message);
}

struct SinkCapture {
  SinkCapture() {
    g_captured.clear();
    obs::set_log_sink(&capture_sink);
  }
  ~SinkCapture() { obs::set_log_sink(nullptr); }
};

// ---- logging ----------------------------------------------------------------

TEST(ObsLogTest, LevelFiltersAndSinkReceivesFormattedMessage) {
  SinkCapture capture;
  const obs::LogLevel saved = obs::log_level();

  obs::set_log_level(obs::LogLevel::Error);
  QC_LOG_WARN("test", "dropped %d", 1);
  EXPECT_TRUE(g_captured.empty());

  obs::set_log_level(obs::LogLevel::Debug);
  QC_LOG_DEBUG("test", "value=%d name=%s", 42, "x");
  ASSERT_EQ(g_captured.size(), 1u);
  EXPECT_EQ(g_captured[0].first, obs::LogLevel::Debug);
  EXPECT_EQ(g_captured[0].second, "test: value=42 name=x");

  obs::set_log_level(saved);
}

TEST(ObsLogTest, ParseLogLevel) {
  using obs::LogLevel;
  EXPECT_EQ(obs::parse_log_level("debug", LogLevel::Warn), LogLevel::Debug);
  EXPECT_EQ(obs::parse_log_level("INFO", LogLevel::Warn), LogLevel::Info);
  EXPECT_EQ(obs::parse_log_level("warn", LogLevel::Error), LogLevel::Warn);
  EXPECT_EQ(obs::parse_log_level("error", LogLevel::Warn), LogLevel::Error);
  EXPECT_EQ(obs::parse_log_level("off", LogLevel::Warn), LogLevel::Off);
  EXPECT_EQ(obs::parse_log_level("bogus", LogLevel::Warn), LogLevel::Warn);
  EXPECT_EQ(obs::parse_log_level(nullptr, LogLevel::Info), LogLevel::Info);
}

// ---- QAPPROX_THREADS validation --------------------------------------------

/// Reads `text` the way ThreadPool::global() reads QAPPROX_THREADS; 0 means
/// hardware concurrency.
std::size_t thread_count_env(const char* text) {
  const char* name = "QAPPROX_TEST_THREADS";
  if (text == nullptr) {
    ::unsetenv(name);
  } else {
    ::setenv(name, text, 1);
  }
  const std::size_t threads =
      common::env_number<std::size_t>(name, 0, 1, common::kMaxThreadPoolSize);
  ::unsetenv(name);
  return threads;
}

TEST(ThreadCountEnvTest, AcceptsPlainPositiveNumbers) {
  SinkCapture capture;
  EXPECT_EQ(thread_count_env("1"), 1u);
  EXPECT_EQ(thread_count_env("16"), 16u);
  EXPECT_EQ(thread_count_env("16 "), 16u);
  EXPECT_EQ(thread_count_env(nullptr), 0u);
  EXPECT_TRUE(g_captured.empty());  // no warnings for valid input
}

TEST(ThreadCountEnvTest, RejectsGarbageWithWarning) {
  SinkCapture capture;
  EXPECT_EQ(thread_count_env(""), 0u);  // empty is unset: no warning
  EXPECT_TRUE(g_captured.empty());
  EXPECT_EQ(thread_count_env("abc"), 0u);
  EXPECT_EQ(thread_count_env("4x"), 0u);
  EXPECT_EQ(thread_count_env("0"), 0u);
  EXPECT_EQ(thread_count_env("-3"), 0u);
  EXPECT_EQ(g_captured.size(), 4u);
  for (const auto& [level, msg] : g_captured)
    EXPECT_EQ(level, obs::LogLevel::Warn) << msg;
}

TEST(ThreadCountEnvTest, ClampsAbsurdValues) {
  // A count above the ceiling is malformed like any other: it warns and
  // falls back to hardware concurrency instead of clamping to the ceiling.
  SinkCapture capture;
  EXPECT_EQ(thread_count_env("1024"), common::kMaxThreadPoolSize);
  EXPECT_EQ(thread_count_env("99999"), 0u);
  EXPECT_EQ(thread_count_env("99999999999999999999"), 0u);
  EXPECT_EQ(g_captured.size(), 2u);
}

// ---- metrics ----------------------------------------------------------------

TEST(ObsMetricsTest, CounterTotalsAreExactUnderConcurrency) {
  obs::Counter& c = obs::counter("test.concurrent.counter");
  c.reset();
  common::ThreadPool pool(4);
  constexpr std::size_t kIters = 20000;
  pool.parallel_for(0, kIters, [&](std::size_t) { c.add(1); });
  EXPECT_EQ(c.value(), kIters);
}

TEST(ObsMetricsTest, GaugeBalancesUnderConcurrency) {
  obs::Gauge& g = obs::gauge("test.concurrent.gauge");
  g.reset();
  common::ThreadPool pool(4);
  pool.parallel_for(0, 10000, [&](std::size_t) {
    g.add(3);
    g.add(-3);
  });
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsMetricsTest, HistogramBucketsFollowBitWidth) {
  obs::Histogram& h = obs::histogram("test.histogram.buckets");
  h.reset();
  h.record(0);     // bit width 0
  h.record(1);     // 1
  h.record(2);     // 2
  h.record(3);     // 2
  h.record(1023);  // 10
  h.record(1024);  // 11
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1023 + 1024);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
}

TEST(ObsMetricsTest, SameNameReturnsSameInstrument) {
  obs::Counter& a = obs::counter("test.identity");
  obs::Counter& b = obs::counter("test.identity");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetricsTest, MetricsJsonIsWellFormedAndContainsInstruments) {
  obs::counter("test.json.counter").reset();
  obs::counter("test.json.counter").add(7);
  obs::gauge("test.json.gauge").set(-5);
  obs::histogram("test.json.hist").reset();
  obs::histogram("test.json.hist").record(100);

  const JsonValue root = parse_json(obs::metrics_json());
  EXPECT_EQ(root.at("counters").at("test.json.counter").number, 7.0);
  EXPECT_EQ(root.at("gauges").at("test.json.gauge").number, -5.0);
  const JsonValue& hist = root.at("histograms").at("test.json.hist");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_EQ(hist.at("sum").number, 100.0);
  EXPECT_EQ(hist.at("buckets").at("7").number, 1.0);  // bit_width(100) == 7

  // The snapshot agrees with the JSON view.
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters)
    if (name == "test.json.counter") {
      found = true;
      EXPECT_EQ(value, 7u);
    }
  EXPECT_TRUE(found);
}

// ---- build info -------------------------------------------------------------

TEST(ObsBuildInfoTest, SummaryAndJsonNameTheBuild) {
  const obs::BuildInfo& info = obs::build_info();
  EXPECT_NE(info.git_sha, nullptr);
  EXPECT_GT(std::string(info.git_sha).size(), 0u);

  const std::string summary = obs::build_info_summary();
  EXPECT_NE(summary.find("qapprox"), std::string::npos);
  EXPECT_NE(summary.find(info.git_sha), std::string::npos);

  const JsonValue root = parse_json(obs::build_info_json());
  EXPECT_EQ(root.at("git_sha").string, info.git_sha);
  EXPECT_TRUE(root.has("compiler"));
  EXPECT_TRUE(root.has("build_type"));
}

// ---- spans ------------------------------------------------------------------

TEST(ObsSpanTest, DisabledSpanRecordsNothing) {
  obs::disable_tracing();
  obs::Histogram& h = obs::histogram("test.span.disabled_ns");
  h.reset();
  obs::set_timing_enabled(false);
  {
    obs::Span span("test.disabled", &h);
    EXPECT_FALSE(span.active());
    span.arg("ignored", 1);
  }
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsSpanTest, TimingOnlySpanFeedsHistogramWithoutTracing) {
  obs::disable_tracing();
  obs::Histogram& h = obs::histogram("test.span.timed_ns");
  h.reset();
  obs::set_timing_enabled(true);
  {
    obs::Span span("test.timed", &h);
    EXPECT_FALSE(span.active());  // no trace event, only the histogram
  }
  obs::set_timing_enabled(false);
  EXPECT_EQ(h.count(), 1u);
}

struct TraceEventView {
  std::string name;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  const JsonValue* args = nullptr;
};

std::vector<TraceEventView> complete_events(const JsonValue& root) {
  std::vector<TraceEventView> out;
  for (const JsonValue& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string != "X") continue;
    TraceEventView view;
    view.name = ev.at("name").string;
    view.tid = static_cast<int>(ev.at("tid").number);
    view.ts = ev.at("ts").number;
    view.dur = ev.at("dur").number;
    if (ev.has("args")) view.args = &ev.at("args");
    out.push_back(view);
  }
  return out;
}

TEST(ObsSpanTest, ConcurrentRunBatchProducesWellFormedTrace) {
  obs::enable_tracing();
  obs::reset_trace();

  exec::ExecutionEngine engine(exec::EngineOptions{4});
  exec::ExecutionConfig cfg =
      exec::ExecutionConfig::simulator(noise::device_by_name("ourense"));
  cfg.use_trajectories = true;
  cfg.shots = 256;
  std::vector<exec::RunRequest> requests;
  for (int i = 0; i < 6; ++i) {
    exec::RunRequest req{algos::grover_circuit(3, 0b011), cfg};
    req.config.seed = 100 + 7 * static_cast<std::uint64_t>(i);
    requests.push_back(std::move(req));
  }
  const auto results = engine.run_batch(requests);
  obs::disable_tracing();

  ASSERT_EQ(results.size(), requests.size());

  const std::string json = obs::chrome_trace_json();
  const JsonValue root = parse_json(json);  // throws on malformed output
  EXPECT_EQ(root.at("traceEvents").array[0].at("ph").string, "M");

  const auto events = complete_events(root);
  std::size_t runs = 0, batches = 0;
  std::map<int, double> last_end;  // events are emitted in completion order
  for (const auto& ev : events) {
    EXPECT_GE(ev.ts, 0.0) << ev.name;
    EXPECT_GE(ev.dur, 0.0) << ev.name;
    const double end = ev.ts + ev.dur;
    auto it = last_end.find(ev.tid);
    if (it != last_end.end()) {
      EXPECT_GE(end, it->second - 0.01)
          << "per-thread completion order violated for " << ev.name;
    }
    last_end[ev.tid] = std::max(end, it == last_end.end() ? end : it->second);
    if (ev.name == "exec.run") ++runs;
    if (ev.name == "exec.run_batch") ++batches;
  }
  EXPECT_EQ(runs, requests.size());
  ASSERT_EQ(batches, 1u);

  for (const auto& ev : events) {
    if (ev.name != "exec.run_batch") continue;
    ASSERT_NE(ev.args, nullptr);
    EXPECT_EQ(ev.args->at("requests").number, 6.0);
  }
  // The per-phase pipeline spans all appear.
  for (const char* name :
       {"exec.transpile", "exec.compile", "exec.model", "exec.evolve",
        "transpile.decompose", "transpile.route", "sim.compile",
        "exec.trajectories", "exec.traj_block"}) {
    bool present = false;
    for (const auto& ev : events) present = present || ev.name == name;
    EXPECT_TRUE(present) << "missing span " << name;
  }
  obs::reset_trace();
}

// ---- request-scoped trace contexts -----------------------------------------

TEST(TraceContextTest, MintedIdsAreFreshAndChildrenInheritTraceId) {
  const obs::TraceContext a = obs::mint_trace();
  const obs::TraceContext b = obs::mint_trace();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_NE(a.span_id, b.span_id);

  const obs::TraceContext child = obs::mint_child(a);
  EXPECT_EQ(child.trace_id, a.trace_id);
  EXPECT_NE(child.span_id, a.span_id);

  const obs::TraceContext orphan = obs::mint_child(obs::TraceContext{});
  EXPECT_FALSE(orphan.valid());
}

// Collects (name, trace, span, parent, tid) for every complete event that
// belongs to `trace_id`.
struct TracedEvent {
  std::string name;
  std::uint64_t span = 0, parent = 0;
  int tid = 0;
};

std::vector<TracedEvent> events_of_trace(const JsonValue& root,
                                         std::uint64_t trace_id) {
  std::vector<TracedEvent> out;
  for (const JsonValue& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string != "X" || !ev.has("args")) continue;
    const JsonValue& args = ev.at("args");
    if (!args.has("trace")) continue;
    if (static_cast<std::uint64_t>(args.at("trace").number) != trace_id)
      continue;
    TracedEvent t;
    t.name = ev.at("name").string;
    t.span = static_cast<std::uint64_t>(args.at("span").number);
    t.parent = static_cast<std::uint64_t>(args.at("parent").number);
    t.tid = static_cast<int>(ev.at("tid").number);
    out.push_back(std::move(t));
  }
  return out;
}

TEST(TraceContextTest, EngineRunThreadsOneTraceAcrossPhasesAndPoolThreads) {
  obs::enable_tracing();
  obs::reset_trace();

  exec::ExecutionEngine engine(exec::EngineOptions{4});
  exec::ExecutionConfig cfg =
      exec::ExecutionConfig::simulator(noise::device_by_name("ourense"));
  cfg.use_trajectories = true;
  cfg.shots = 512;

  const obs::TraceContext root = obs::mint_trace();
  exec::RunRequest req{algos::grover_circuit(3, 0b011), cfg};
  req.trace_parent = root;
  const exec::RunResult result = engine.run(req);
  // A second, unrelated traced run: its spans must not leak into the first
  // trace's extraction.
  const obs::TraceContext other = obs::mint_trace();
  exec::RunRequest req2{algos::grover_circuit(3, 0b110), cfg};
  req2.trace_parent = other;
  engine.run(req2);
  obs::disable_tracing();

  // The reply-visible id is the engine's run span inside the root's trace.
  EXPECT_EQ(result.record.trace_id, root.trace_id);

  const JsonValue full = parse_json(obs::chrome_trace_json());
  const auto events = events_of_trace(full, root.trace_id);
  std::map<std::string, std::size_t> by_name;
  std::map<std::uint64_t, std::size_t> spans;
  for (const auto& ev : events) {
    ++by_name[ev.name];
    spans[ev.span] = 1;
  }
  for (const char* name : {"exec.run", "exec.transpile", "exec.compile",
                           "exec.model", "exec.evolve", "exec.trajectories",
                           "exec.traj_block"})
    EXPECT_GE(by_name[name], 1u) << "missing traced span " << name;
  // Connectivity: every span's parent is either the minted root or another
  // span in the same trace — no orphans, even for trajectory blocks that ran
  // on pool threads.
  for (const auto& ev : events)
    EXPECT_TRUE(ev.parent == root.span_id || spans.count(ev.parent) != 0)
        << ev.name << " has dangling parent " << ev.parent;

  // Single-trace extraction keeps the first trace and drops the second.
  const JsonValue only = parse_json(obs::chrome_trace_json_for_trace(root.trace_id));
  EXPECT_FALSE(events_of_trace(only, root.trace_id).empty());
  EXPECT_TRUE(events_of_trace(only, other.trace_id).empty());
  obs::reset_trace();
}

TEST(TraceContextTest, ManualSpanCommitsMeasuredIntervalIntoParentTrace) {
  obs::enable_tracing();
  obs::reset_trace();

  const obs::TraceContext root = obs::mint_trace();
  const obs::TraceContext queued = obs::mint_child(root);
  obs::ManualSpan span("test.queued", queued, root.span_id);
  span.arg("reason", std::string("unit"));
  span.commit(1000, 5000);
  span.commit(9000, 9999);  // second commit is a no-op

  const JsonValue full = parse_json(obs::chrome_trace_json());
  const auto events = events_of_trace(full, root.trace_id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.queued");
  EXPECT_EQ(events[0].span, queued.span_id);
  EXPECT_EQ(events[0].parent, root.span_id);
  obs::reset_trace();
  obs::disable_tracing();

  // Disabled tracing: commit records nothing, by contract.
  obs::ManualSpan silent("test.silent", obs::mint_trace(), 0);
  silent.commit(0, 1);
  EXPECT_EQ(obs::chrome_trace_json_for_trace(root.trace_id)
                .find("test.silent"),
            std::string::npos);
}

TEST(ObsSpanTest, CacheCountersMatchEngineStatsDelta) {
  obs::Counter& hits = obs::counter("exec.cache.transpile.hits");
  obs::Counter& misses = obs::counter("exec.cache.transpile.misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();

  exec::ExecutionEngine engine(exec::EngineOptions{1});
  exec::ExecutionConfig cfg =
      exec::ExecutionConfig::simulator(noise::device_by_name("ourense"));
  const exec::RunRequest request{algos::grover_circuit(3, 0b101), cfg};
  engine.run(request);
  engine.run(request);
  engine.run(request);

  const exec::CacheStats stats = engine.cache_stats_snapshot().stats;
  EXPECT_EQ(stats.transpile_misses, 1u);
  EXPECT_EQ(stats.transpile_hits, 2u);
  // The process-wide counters advanced by exactly this engine's tallies.
  EXPECT_EQ(hits.value() - hits0, stats.transpile_hits);
  EXPECT_EQ(misses.value() - misses0, stats.transpile_misses);
}

}  // namespace
}  // namespace qc
