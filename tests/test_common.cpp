// Unit tests for qc::common — RNG, thread pool, tables, CLI, strings, the
// bounded LRU cache, and the one parser of numbers read from outside the
// program, fed through every source that uses it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/driver.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/json.hpp"
#include "common/lru_cache.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "ir/qasm.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace qc::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(Rng, UniformIntRejectsZero) { EXPECT_THROW(Rng(1).uniform_int(0), Error); }

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.discrete(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 30000.0, 0.6, 0.02);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.discrete({}), Error);
  EXPECT_THROW(rng.discrete({0.0, 0.0}), Error);
  EXPECT_THROW(rng.discrete({1.0, -0.5}), Error);
}

TEST(Rng, PresummedDiscreteDrawsTheSameIndices) {
  // Callers that draw many times from one weight vector sum it once; the
  // draws must not change.
  const std::vector<std::vector<double>> weights = {
      {1.0},
      {0.25, 0.75},
      {1.0, 3.0, 0.0, 6.0},
      {0.0, 0.0, 1e-300, 2.5},
      {0.97, 0.01, 0.01, 0.01, 1e-17, 0.1 / 3.0, 0.2 / 7.0},
  };
  for (const auto& w : weights) {
    const double total = Rng::discrete_total(w);
    Rng a(99), b(99);
    for (int i = 0; i < 5000; ++i) ASSERT_EQ(a.discrete(w), b.discrete(w, total));
  }
  EXPECT_THROW(Rng::discrete_total({}), Error);
  EXPECT_THROW(Rng::discrete_total({0.0, 0.0}), Error);
  EXPECT_THROW(Rng::discrete_total({1.0, -0.5}), Error);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(123);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = parent.split(1);
  EXPECT_EQ(c1.next(), c1_again.next());
  EXPECT_NE(c1.next(), c2.next());
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, UnevenLoadRunsEveryIndexOnceAndPropagatesTheError) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 200;
  // Index 0 holds its worker until every other index has run. A static
  // share would strand the rest of index 0's share behind it; claiming lets
  // the other workers take them.
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> others{0};
  bool drained = false;
  pool.parallel_for(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (others.load() < kN - 1 && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    drained = others.load() == kN - 1;
  });
  EXPECT_TRUE(drained);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // The task that throws claims nothing more; the others finish the range,
  // and the exception reaches the caller.
  std::vector<std::atomic<int>> ran(kN);
  bool thrown = false;
  try {
    pool.parallel_for(0, kN, [&](std::size_t i) {
      ran[i].fetch_add(1);
      if (i == 37) throw Error("index 37");
    });
  } catch (const Error& e) {
    thrown = std::string(e.what()).find("index 37") != std::string::npos;
  }
  EXPECT_TRUE(thrown);
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, SingleThreadFallbackWorks) {
  ThreadPool pool(1);
  std::vector<int> out(10, 0);
  pool.parallel_for(0, 10, [&](std::size_t i) { out[i] = static_cast<int>(i * i); });
  EXPECT_EQ(out[9], 81);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,2.5\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"he said \"hi\""});
  EXPECT_EQ(t.to_csv(), "a\n\"x,y\"\n\"he said \"\"hi\"\"\"\n");
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, AddRowValuesFormats) {
  Table t({"x", "y"});
  t.add_row_values({1.5, 3.0});
  EXPECT_EQ(t.row(0)[0], "1.5");
  EXPECT_EQ(t.row(0)[1], "3");
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "x", "--flag"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_number("alpha", 0), 3);
  EXPECT_EQ(args.get("beta", ""), "x");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_number("missing", 2.5), 2.5);
}

TEST(Cli, BoolParsing) {
  const char* argv[] = {"prog", "--a=yes", "--b=0", "--c=TRUE"};
  CliArgs args(4, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

/// Asserts that `parse` throws a ContractError naming --name, whose message
/// is the user-facing text alone: no failed check expression and no source
/// location.
template <class Parse>
void expect_flag_rejected(const char* name, Parse parse) {
  try {
    parse();
    ADD_FAILURE() << "--" << name << " parsed";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(std::string("--") + name + ": ", 0), 0u) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    EXPECT_EQ(what.find("src/common"), std::string::npos) << what;
  }
}

TEST(Cli, GetIntRejectsTrailingTextAndOverflow) {
  const char* argv[] = {"prog", "--a=12x", "--b=abc", "--c=-7", "--d=99999999999", "--e="};
  CliArgs args(6, argv);
  for (const char* name : {"a", "b", "d", "e"})
    expect_flag_rejected(name, [&] { args.get_number(name, 0); });
  EXPECT_EQ(args.get_number("c", 0), -7);
  EXPECT_EQ(args.get_number("missing", 5), 5);
}

TEST(Cli, GetDoubleAndGetSeedParseStrictly) {
  const char* argv[] = {"prog",          "--abc=abc",   "--trailing=1.5x",
                        "--negative=-1", "--octal=010", "--empty=",
                        "--hex=0x10",    "--inf=inf",   "--huge=1e400",
                        "--wide=18446744073709551616", "--max=18446744073709551615",
                        "--fraction=0.25"};
  CliArgs args(12, argv);
  for (const char* name : {"abc", "trailing", "empty", "hex", "inf", "huge"})
    expect_flag_rejected(name, [&] { args.get_number(name, 0.0); });
  EXPECT_EQ(args.get_number("negative", 0.0), -1.0);
  EXPECT_EQ(args.get_number("octal", 0.0), 10.0);
  EXPECT_EQ(args.get_number("fraction", 0.0), 0.25);

  for (const char* name : {"abc", "trailing", "negative", "empty", "hex", "wide", "fraction"})
    expect_flag_rejected(name, [&] { args.get_number<std::uint64_t>(name, 0); });
  EXPECT_EQ(args.get_number<std::uint64_t>("octal", 0), 10u);  // decimal, not octal 8
  EXPECT_EQ(args.get_number<std::uint64_t>("max", 0), 18446744073709551615u);
  EXPECT_EQ(args.get_number<std::uint64_t>("missing", 5), 5u);
}

TEST(Cli, DriverContextBoundsShots) {
  const auto shots_for = [](const char* value) {
    const char* argv[] = {"prog", "--shots", value};
    return driver::DriverContext(3, const_cast<char**>(argv), "test").shots;
  };
  EXPECT_EQ(shots_for("1"), 1u);
  EXPECT_EQ(shots_for("512"), 512u);
  EXPECT_EQ(shots_for("1048576"), driver::kMaxShots);
  for (const char* bad : {"-1", "0", "12x", "abc", "1048577"})
    expect_flag_rejected("shots", [&] { shots_for(bad); });
  const char* argv[] = {"prog"};
  EXPECT_EQ(driver::DriverContext(1, const_cast<char**>(argv), "test").shots, 2048u);
}

// ---- numbers read from outside the program ----------------------------------
//
// Flags, environment variables, fault specs and QASM text all read numbers
// through parse_decimal and differ only in what they do on failure: a flag
// throws naming itself, an environment variable warns and keeps its default,
// a fault spec or a QASM program is refused whole. One table of inputs, fed
// through every source; each column is one kind of setting.

struct OutsideNumberCase {
  const char* text;
  std::optional<std::uint64_t> seed;  // a seed: a decimal integer in [0, 2^64)
  std::optional<double> period;       // a millisecond period in [0, kMaxPeriodMs]
  std::optional<int> qubits;          // a QASM qreg size in [1, kMaxCircuitQubits]
  std::optional<double> angle;        // a QASM angle: any finite number
};

constexpr std::nullopt_t kRejected = std::nullopt;

const OutsideNumberCase kOutsideNumbers[] = {
    {"", kRejected, kRejected, kRejected, kRejected},
    {" 12 ", 12, 12.0, 12, 12.0},  // surrounding whitespace is trimmed
    {"12abc", kRejected, kRejected, kRejected, kRejected},
    {"-3", kRejected, kRejected, kRejected, -3.0},  // QASM: unary minus on 3
    {"0", 0, 0.0, kRejected, 0.0},
    {"010", 10, 10.0, 10, 10.0},  // decimal, never octal
    {"0x10", kRejected, kRejected, kRejected, kRejected},
    {"1e3", kRejected, 1000.0, kRejected, 1000.0},
    {"nan", kRejected, kRejected, kRejected, kRejected},
    {"inf", kRejected, kRejected, kRejected, kRejected},
    {"1e300", kRejected, kRejected, kRejected, 1e300},
    {"18446744073709551616", kRejected, kRejected, kRejected, 18446744073709551616.0},
};

/// Sets an environment variable for one scope.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const std::string& value) : name(n) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name); }
};

/// Counts the warnings logged while it lives.
struct WarningCount {
  static inline std::size_t count = 0;
  const obs::LogLevel saved = obs::log_level();
  WarningCount() {
    count = 0;
    obs::set_log_level(obs::LogLevel::Warn);
    obs::set_log_sink([](obs::LogLevel level, const char*, const char*) {
      if (level == obs::LogLevel::Warn) ++count;
    });
  }
  ~WarningCount() {
    obs::set_log_sink(nullptr);
    obs::set_log_level(saved);
  }
};

/// A refusal of outside text carries the message alone.
void expect_message_only(const std::string& what) {
  EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
}

TEST(OutsideNumber, FlagsThrowNamingTheFlagAndItsRange) {
  for (const OutsideNumberCase& c : kOutsideNumbers) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    const std::string flag = std::string("--v=") + c.text;
    const char* argv[] = {"prog", flag.c_str()};
    const CliArgs args(2, argv);
    if (c.seed) {
      EXPECT_EQ(args.get_number<std::uint64_t>("v", 7), *c.seed);
    } else {
      expect_flag_rejected("v", [&] { args.get_number<std::uint64_t>("v", 7); });
    }
    if (c.period) {
      EXPECT_EQ(args.get_number("v", 7.0, 0.0, kMaxPeriodMs), *c.period);
    } else {
      expect_flag_rejected("v", [&] { args.get_number("v", 7.0, 0.0, kMaxPeriodMs); });
    }
  }
  const char* argv[] = {"prog", "--v=-7"};
  const CliArgs args(2, argv);
  EXPECT_EQ(args.get_number("v", 0), -7);  // no bounds given: the type's range
  EXPECT_EQ(args.get_number("missing", 5), 5);
  try {
    args.get_number("v", 0, 1, 9);
    ADD_FAILURE() << "-7 parsed into [1, 9]";
  } catch (const ContractError& e) {
    EXPECT_STREQ(e.what(), "--v: expected a decimal integer in [1, 9], got '-7'");
  }
}

TEST(OutsideNumber, EnvironmentWarnsOnceAndKeepsTheDefault) {
  WarningCount warnings;
  for (const OutsideNumberCase& c : kOutsideNumbers) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    {
      const ScopedEnv env("QAPPROX_SEED", c.text);
      EXPECT_EQ(driver::default_seed(77), c.seed.value_or(77));
    }
    const ScopedEnv env("QAPPROX_TEST_PERIOD_MS", c.text);
    EXPECT_EQ(env_number("QAPPROX_TEST_PERIOD_MS", 5.0, 0.0, kMaxPeriodMs),
              c.period.value_or(5.0));
    // A value already reported stays quiet however often it is read.
    const std::size_t before = WarningCount::count;
    (void)driver::default_seed(77);
    (void)env_number("QAPPROX_TEST_PERIOD_MS", 5.0, 0.0, kMaxPeriodMs);
    EXPECT_EQ(WarningCount::count, before);
  }
  // Unset and empty are the default, silently; a fresh malformed value warns.
  static int fresh = 0;
  WarningCount::count = 0;
  EXPECT_EQ(env_number("QAPPROX_TEST_UNSET", 3, 1, 9), 3);
  {
    const ScopedEnv env("QAPPROX_TEST_PERIOD_MS", "");
    EXPECT_EQ(env_number("QAPPROX_TEST_PERIOD_MS", 5.0, 0.0, kMaxPeriodMs), 5.0);
  }
  EXPECT_EQ(WarningCount::count, 0u);
  const ScopedEnv env("QAPPROX_TEST_PERIOD_MS", "bad" + std::to_string(++fresh));
  EXPECT_EQ(env_number("QAPPROX_TEST_PERIOD_MS", 5.0, 0.0, kMaxPeriodMs), 5.0);
  EXPECT_EQ(WarningCount::count, 1u);
}

TEST(OutsideNumber, ThreadCountAboveTheCeilingFallsBackToHardwareConcurrency) {
  // The global pool reads QAPPROX_THREADS exactly this way (0 = hardware
  // concurrency); a value above the ceiling is malformed, not clamped.
  const auto threads = [](const char* text) {
    const ScopedEnv env("QAPPROX_TEST_THREADS", text);
    return env_number<std::size_t>("QAPPROX_TEST_THREADS", 0, 1, kMaxThreadPoolSize);
  };
  EXPECT_EQ(threads("16"), 16u);
  EXPECT_EQ(threads("1024"), kMaxThreadPoolSize);
  for (const char* bad : {"0", "-3", "4x", "99999", "99999999999999999999"})
    EXPECT_EQ(threads(bad), 0u) << bad;
}

TEST(OutsideNumber, FaultSpecsRefuseTheWholeSpec) {
  for (const OutsideNumberCase& c : kOutsideNumbers) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    const auto install = [](const std::string& spec) {
      try {
        faults::install_spec(spec);
        return true;
      } catch (const ContractError& e) {
        expect_message_only(e.what());
        return false;
      }
    };
    EXPECT_EQ(install(std::string("seed=") + c.text), c.seed.has_value());
    // The worker site keeps its param as given (slow defaults a 0 to 10 ms).
    EXPECT_EQ(install(std::string("worker:0.5:") + c.text), c.period.has_value());
    if (c.period) {
      EXPECT_EQ(faults::param(faults::Site::WorkerThrow), *c.period);
    }
    faults::install_spec("");
  }
}

TEST(OutsideNumber, QasmRefusesTheProgram) {
  for (const OutsideNumberCase& c : kOutsideNumbers) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    const auto parse = [](const std::string& program) -> std::optional<ir::QuantumCircuit> {
      try {
        return ir::from_qasm(program);
      } catch (const ContractError& e) {
        expect_message_only(e.what());
        EXPECT_NE(std::string(e.what()).find("qasm"), std::string::npos) << e.what();
        return std::nullopt;
      }
    };
    const auto sized = parse(std::string("qreg q[") + c.text + "];\nh q[0];\n");
    ASSERT_EQ(sized.has_value(), c.qubits.has_value());
    if (sized) {
      EXPECT_EQ(sized->num_qubits(), *c.qubits);
    }
    const auto turned = parse(std::string("qreg q[1];\nrz(") + c.text + ") q[0];\n");
    ASSERT_EQ(turned.has_value(), c.angle.has_value());
    if (turned) {
      EXPECT_EQ(turned->gate(0).params.at(0), *c.angle);
    }
  }
}

TEST(OutsideNumber, ServerSettingsOutsideTheirBoundsKeepTheDefaults) {
  const serve::ServerOptions defaults;
  {
    // Parsed only: no scheduler is ever started with the requested count.
    const ScopedEnv workers("QAPPROX_SERVE_WORKERS", "5000");
    const ScopedEnv queue("QAPPROX_SERVE_QUEUE_CAP", "0");
    const ScopedEnv period("QAPPROX_METRICS_PERIOD_MS", "1e300");
    const ScopedEnv watchdog("QAPPROX_WATCHDOG_MS", "inf");
    const serve::ServerOptions opts = serve::ServerOptions::from_env();
    EXPECT_EQ(opts.scheduler.workers, defaults.scheduler.workers);
    EXPECT_EQ(opts.scheduler.queue_cap, defaults.scheduler.queue_cap);
    EXPECT_EQ(opts.metrics_period_ms, defaults.metrics_period_ms);
    EXPECT_EQ(opts.watchdog.scan_period_ms, defaults.watchdog.scan_period_ms);
  }
  const ScopedEnv workers("QAPPROX_SERVE_WORKERS", "8");
  const ScopedEnv queue("QAPPROX_SERVE_QUEUE_CAP", "65536");
  const ScopedEnv period("QAPPROX_METRICS_PERIOD_MS", "86400000");
  const ScopedEnv watchdog("QAPPROX_WATCHDOG_MS", "0");
  const serve::ServerOptions opts = serve::ServerOptions::from_env();
  EXPECT_EQ(opts.scheduler.workers, 8u);
  EXPECT_EQ(opts.scheduler.queue_cap, serve::kMaxQueueCap);
  EXPECT_EQ(opts.metrics_period_ms, kMaxPeriodMs);
  EXPECT_EQ(opts.watchdog.scan_period_ms, 0.0);
}

TEST(Strings, SplitTrimLower) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("prefix_tail", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
}

TEST(Strings, FormatDoubleTrims) {
  EXPECT_EQ(format_double(0.12), "0.12");
  EXPECT_EQ(format_double(3.0), "3");
  EXPECT_EQ(format_double(-1.25), "-1.25");
}

TEST(Strings, BitstringMsbFirst) {
  EXPECT_EQ(to_bitstring(0b101, 3), "101");
  EXPECT_EQ(to_bitstring(1, 4), "0001");
  EXPECT_EQ(to_bitstring(0, 2), "00");
}

TEST(Strings, EnvSettingsParseOrWarnAndKeepTheFallback) {
  const char* name = "QAPPROX_TEST_ENV_SETTING";
  const auto count = [&] { return env_number<std::size_t>(name, 7, 1, 1000); };
  const auto ratio = [&] { return env_number(name, 2.5, 0.0, 1000.0); };
  ::unsetenv(name);
  EXPECT_EQ(count(), 7u);
  EXPECT_EQ(ratio(), 2.5);
  ::setenv(name, "12", 1);
  EXPECT_EQ(count(), 12u);
  EXPECT_EQ(ratio(), 12.0);
  ::setenv(name, "0.25", 1);
  EXPECT_EQ(count(), 7u);  // not a whole integer
  EXPECT_EQ(ratio(), 0.25);
  for (const char* bad : {"0", "-3", " -3", "12abc", "x"}) {
    ::setenv(name, bad, 1);
    EXPECT_EQ(count(), 7u) << bad;
  }
  for (const char* bad : {"-1", "1.5ms", "fast"}) {
    ::setenv(name, bad, 1);
    EXPECT_EQ(ratio(), 2.5) << bad;
  }
  ::unsetenv(name);
}

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    QC_CHECK_MSG(false, "context");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

// ---- JSON document model ----------------------------------------------------

TEST(Json, ParseRoundTripsScalarsAndContainers) {
  const std::string text =
      R"({"a":1,"b":true,"c":null,"d":"x\ny","e":[1,2.5,-3],"f":{"g":"h"}})";
  const json::Value v = json::parse(text);
  EXPECT_EQ(v.get_int("a", 0), 1);
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_TRUE(v.find("c")->is_null());
  EXPECT_EQ(v.find("d")->as_string(), "x\ny");
  EXPECT_EQ(v.find("e")->as_array().size(), 3u);
  EXPECT_EQ(v.find("f")->get_string("g", ""), "h");
  // Canonical dump re-parses to an equal document.
  EXPECT_EQ(json::parse(v.dump()), v);

  // The writer's escapes and non-finite numbers, byte for byte: quotes and
  // control bytes in keys and strings, and +-inf / NaN as strings.
  json::Value w = json::Value::object();
  w.set("q\"k", std::string("a\"b\\c\x01\x1f"));
  json::Value nums = json::Value::array();
  for (const double x : {0.1, HUGE_VAL, -HUGE_VAL, std::nan("")}) nums.push_back(x);
  w.set("n", nums);
  EXPECT_EQ(w.dump(),
            R"({"q\"k":"a\"b\\c\u0001\u001f","n":[0.10000000000000001,"inf","-inf","nan"]})");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double x : {0.1, 1e-300, 3.141592653589793, -2.718281828459045,
                         12345678901234.5}) {
    json::Value v = json::Value::object();
    v.set("x", x);
    EXPECT_EQ(json::parse(v.dump()).get_number("x", 0.0), x);
  }
}

TEST(Json, IntegerAccessorsRejectNumbersOutsideTheirRange) {
  // Wire numbers reach as_int/as_uint64 through get_int; the parser turns an
  // overlong literal into inf. None of these may reach the integer cast.
  const json::Value doc = json::parse(
      R"({"big":1e300,"neg":-1e300,"inf":1e400,"ninf":-1e400,"two64":18446744073709551616})");
  for (const char* key : {"big", "neg", "inf", "ninf", "two64"}) {
    EXPECT_THROW(doc.find(key)->as_int(), Error) << key;
    EXPECT_THROW(doc.find(key)->as_uint64(), Error) << key;
    EXPECT_THROW(doc.get_int(key, 0), Error) << key;
  }
  EXPECT_THROW(json::Value(std::nan("")).as_int(), Error);
  EXPECT_THROW(json::Value(std::nan("")).as_uint64(), Error);
  // The edges: 2^63 is one past int64, -2^63 and the largest double below
  // 2^64 fit.
  EXPECT_THROW(json::Value(0x1p63).as_int(), Error);
  EXPECT_EQ(json::Value(-0x1p63).as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(json::Value(0x1p63).as_uint64(), std::uint64_t{1} << 63);
  EXPECT_EQ(json::Value(0x1p64 - 2048.0).as_uint64(),
            std::numeric_limits<std::uint64_t>::max() - 2047);
  EXPECT_THROW(json::Value(-1.0).as_uint64(), Error);
  EXPECT_EQ(json::Value(-2.9).as_int(), -2);
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  EXPECT_THROW(json::parse("{\"a\":}"), Error);
  EXPECT_THROW(json::parse("[1,2"), Error);
  EXPECT_THROW(json::parse("{} trailing"), Error);
  std::string error;
  json::Value out;
  EXPECT_FALSE(json::try_parse("nope", &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Json, DepthCapStopsHostilePayloads) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_THROW(json::parse(deep, 64), Error);
  EXPECT_NO_THROW(json::parse(deep, 256));
}

TEST(Json, DoubleBitsHexRoundTrip) {
  for (const double x : {0.0, -0.0, 1.5, -1e308, 5e-324}) {
    const std::string hex = json::double_to_bits_hex(x);
    const double back = json::double_from_bits_hex(hex);
    EXPECT_EQ(std::memcmp(&x, &back, sizeof(double)), 0) << hex;
  }
}

// ---- run_main soft-timeout exit policy -------------------------------------

int body_timeout_after_results(int, char**) {
  note_partial_results("fig99 table");
  throw TimeoutError("study: deadline expired");
}

int body_timeout_cold(int, char**) {
  throw TimeoutError("study: deadline expired");
}

TEST(RunMain, TimeoutAfterPartialResultsExitsZero) {
  reset_partial_results_note();
  char arg0[] = "test";
  char* argv[] = {arg0, nullptr};
  EXPECT_EQ(run_main(1, argv, body_timeout_after_results), 0);
  reset_partial_results_note();
}

TEST(RunMain, TimeoutWithNoResultsExitsNonzero) {
  reset_partial_results_note();
  char arg0[] = "test";
  char* argv[] = {arg0, nullptr};
  EXPECT_EQ(run_main(1, argv, body_timeout_cold), 1);
}

// ---- LruCache ----------------------------------------------------------------

TEST(LruCache, EvictsTheColdestEntry) {
  LruCache<int, std::string> cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1), "one");  // 2 is now the coldest
  cache.put(3, "three");
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, OverwriteRefreshesRecency) {
  LruCache<int, std::string> cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  cache.put(1, "uno");  // overwrite: 1 becomes the hottest, 2 the coldest
  EXPECT_EQ(cache.size(), 2u);
  cache.put(3, "three");
  EXPECT_EQ(cache.get(1), "uno");
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruCache, TalliesHitsMissesAndEvictions) {
  LruCache<int, int> cache(1);
  EXPECT_FALSE(cache.get(7).has_value());             // miss
  EXPECT_EQ(cache.find_or_insert(7, [] { return 70; }),
            std::make_pair(70, false));                // miss, insert
  EXPECT_EQ(cache.find_or_insert(7, [] { return 71; }),
            std::make_pair(70, true));                 // hit, make not used
  EXPECT_EQ(cache.get(7), 70);                         // hit
  cache.put(8, 80);                                    // evicts 7, no tally
  EXPECT_TRUE(cache.contains(8));                      // no tally either
  const LruStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.cap, 1u);

  cache.clear();  // entries go, tallies stay
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 2u);
  cache.put(9, 90);
  cache.reset();  // both go
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses() + cache.evictions(), 0u);
}

TEST(LruCache, MetricPrefixBumpsProcessCounters) {
  obs::Counter& hits = obs::counter("test.lru.hits");
  obs::Counter& misses = obs::counter("test.lru.misses");
  obs::Counter& evictions = obs::counter("test.lru.evictions");
  const std::uint64_t h0 = hits.value(), m0 = misses.value(), e0 = evictions.value();
  LruCache<int, int> cache(1, "test.lru");
  cache.get(1);
  cache.put(1, 10);
  cache.get(1);
  cache.put(2, 20);
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(misses.value() - m0, 1u);
  EXPECT_EQ(evictions.value() - e0, 1u);
}

TEST(LruCache, DumpIsColdestFirstAndRestoresRecency) {
  LruCache<int, int> cache(3);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  cache.get(1);  // recency, coldest first: 2, 3, 1
  const std::vector<std::pair<int, int>> dump = cache.dump();
  EXPECT_EQ(dump, (std::vector<std::pair<int, int>>{{2, 20}, {3, 30}, {1, 10}}));

  LruCache<int, int> restored(3);
  for (const auto& [k, v] : dump) restored.put(k, v);
  EXPECT_EQ(restored.dump(), dump);
  restored.put(4, 40);  // evicts 2, the coldest in both caches
  EXPECT_FALSE(restored.contains(2));
  EXPECT_TRUE(restored.contains(1));
}

TEST(LruCache, RacingFindOrInsertOnOneKeyYieldsOneValue) {
  LruCache<int, std::shared_ptr<int>> cache(4);
  std::atomic<int> made{0};
  std::vector<std::shared_ptr<int>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      got[t] = cache.find_or_insert(42, [&] {
                      made.fetch_add(1);
                      return std::make_shared<int>(static_cast<int>(t));
                    }).first;
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(made.load(), 1);
  for (const auto& p : got) EXPECT_EQ(p, got[0]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 7u);
}

}  // namespace
}  // namespace qc::common
