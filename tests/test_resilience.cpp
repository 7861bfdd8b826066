// Resilience: the error taxonomy, deadlines/cancellation, the deterministic
// fault-injection harness, and graceful degradation in the engine, the
// synthesizers, and the approx study drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "algos/grover.hpp"
#include "algos/tfim.hpp"
#include "approx/experiment.hpp"
#include "approx/selection.hpp"
#include "approx/tfim_study.hpp"
#include "approx/workflow.hpp"
#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/io.hpp"
#include "common/strings.hpp"
#include "exec/engine.hpp"
#include "linalg/factories.hpp"
#include "noise/catalog.hpp"
#include "synth/qsearch.hpp"

namespace qc {
namespace {

namespace faults = common::faults;

/// Every fault test disarms the harness on exit so sibling tests (and other
/// suites in this binary) run clean.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { faults::install_spec(""); }
};

exec::ExecutionConfig dm_config() {
  return exec::ExecutionConfig::simulator(noise::device_by_name("ourense"));
}

exec::ExecutionConfig trajectory_config(std::size_t shots = 512) {
  exec::ExecutionConfig cfg = dm_config();
  cfg.use_trajectories = true;
  cfg.shots = shots;
  cfg.seed = 17;
  return cfg;
}

ir::QuantumCircuit small_circuit() { return algos::grover_circuit(3, 0b101); }

// ---- error taxonomy --------------------------------------------------------

TEST(ErrorTaxonomyTest, KindsAreStable) {
  EXPECT_STREQ(common::Error("x").kind(), "error");
  EXPECT_STREQ(common::ContractError("x").kind(), "contract");
  EXPECT_STREQ(common::SynthesisError("x").kind(), "synthesis");
  EXPECT_STREQ(common::SimulationError("x").kind(), "simulation");
  EXPECT_STREQ(common::TimeoutError("x").kind(), "timeout");
}

TEST(ErrorTaxonomyTest, CheckFailureThrowsContractError) {
  try {
    QC_CHECK_MSG(false, "intentional");
    FAIL() << "QC_CHECK did not throw";
  } catch (const common::Error& e) {
    EXPECT_STREQ(e.kind(), "contract");
    EXPECT_NE(std::string(e.what()).find("intentional"), std::string::npos);
  }
}

// ---- deadlines and cancellation --------------------------------------------

TEST(DeadlineTest, DefaultIsUnbounded) {
  const common::Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  d.raise_if_expired("never");  // must not throw
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(common::Deadline::after_ms(0).expired());
  EXPECT_TRUE(common::Deadline::after_ms(-5).expired());
  EXPECT_FALSE(common::Deadline::after_ms(1e9).expired());
}

TEST(DeadlineTest, BudgetsBeyondTheClockRangeAreNeverOrExpired) {
  // A wire deadline_ms reaches after_ms as any double; none may overflow the
  // nanosecond conversion.
  for (const double ms : {1e12, 1e300, HUGE_VAL, std::nan("")})
    EXPECT_FALSE(common::Deadline::after_ms(ms).bounded()) << ms;
  EXPECT_TRUE(common::Deadline::after_ms(1e11).bounded());
  EXPECT_TRUE(common::Deadline::after_ms(-1e300).expired());
  EXPECT_TRUE(common::Deadline::after_ms(-HUGE_VAL).expired());
}

TEST(DeadlineTest, RaiseIfExpiredThrowsTimeoutError) {
  const common::Deadline d = common::Deadline::after_ms(-1);
  try {
    d.raise_if_expired("unit test");
    FAIL() << "expected TimeoutError";
  } catch (const common::TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
  }
}

TEST(DeadlineTest, CancelTokenTripsSharedCopies) {
  const common::CancelToken token = common::CancelToken::make();
  const common::Deadline d = common::Deadline::never().with_token(token);
  EXPECT_TRUE(d.bounded());
  EXPECT_FALSE(d.expired());
  token.request_cancel();
  EXPECT_TRUE(d.expired());
}

TEST(DeadlineTest, StopPollerLatchesOnceTriggered) {
  common::Deadline d = common::Deadline::after_ms(-1);
  common::StopPoller poller(d, 1);
  EXPECT_TRUE(poller.should_stop());
  EXPECT_TRUE(poller.triggered());
  EXPECT_TRUE(poller.should_stop());
}

TEST(DeadlineTest, EnvParserRejectsGarbage) {
  // Deadline::from_env reads QAPPROX_DEADLINE_MS once, with these bounds.
  const char* name = "QAPPROX_TEST_DEADLINE_MS";
  const auto budget = [&](const char* text) {
    if (text == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, text, 1);
    }
    const double ms = common::env_number(name, 0.0, 0.0, common::kMaxPeriodMs);
    ::unsetenv(name);
    return ms;
  };
  EXPECT_EQ(budget(nullptr), 0);
  EXPECT_EQ(budget(""), 0);
  EXPECT_EQ(budget("0"), 0);
  EXPECT_EQ(budget("250"), 250);
  EXPECT_EQ(budget("notanumber"), 0);
  EXPECT_EQ(budget("-40"), 0);
}

// ---- fault-injection harness -----------------------------------------------

TEST_F(FaultTest, SpecGrammarRoundTrips) {
  faults::install_spec("synth:0.25,slow:1:25,seed=9");
  EXPECT_TRUE(faults::enabled());
  EXPECT_DOUBLE_EQ(faults::param(faults::Site::SlowTask), 25.0);
  EXPECT_EQ(faults::active_spec(), "synth:0.25,slow:1:25,seed=9");

  faults::install_spec("");
  EXPECT_FALSE(faults::enabled());
  EXPECT_FALSE(faults::fires(faults::Site::SynthFail, 0));
}

TEST_F(FaultTest, SlowSiteDefaultsToTenMilliseconds) {
  faults::install_spec("slow:1");
  EXPECT_DOUBLE_EQ(faults::param(faults::Site::SlowTask), 10.0);
}

TEST_F(FaultTest, MalformedSpecsThrowContractError) {
  EXPECT_THROW(faults::install_spec("notasite:0.5"), common::ContractError);
  EXPECT_THROW(faults::install_spec("synth"), common::ContractError);
  EXPECT_THROW(faults::install_spec("synth:2.0"), common::ContractError);
  EXPECT_THROW(faults::install_spec("synth:abc"), common::ContractError);
  EXPECT_FALSE(faults::enabled());  // failed installs must not arm anything
}

TEST_F(FaultTest, FiringIsDeterministicPerStream) {
  faults::install_spec("worker:0.5,seed=7");
  for (std::uint64_t stream = 0; stream < 32; ++stream) {
    const bool first = faults::fires(faults::Site::WorkerThrow, stream);
    EXPECT_EQ(first, faults::fires(faults::Site::WorkerThrow, stream))
        << "stream " << stream;
  }
  faults::install_spec("worker:1,seed=7");
  EXPECT_TRUE(faults::fires(faults::Site::WorkerThrow, 3));
  faults::install_spec("worker:0,seed=7");
  EXPECT_FALSE(faults::fires(faults::Site::WorkerThrow, 3));
}

// ---- engine options validation ---------------------------------------------

TEST(EngineOptionsTest, AbsurdValuesAreClampedNotFatal) {
  exec::EngineOptions options;
  options.num_threads = common::kMaxThreadPoolSize;  // at the cap: no clamp
  exec::ExecutionEngine engine(options);              // must construct
  const auto result = engine.run({small_circuit(), trajectory_config(64)});
  EXPECT_EQ(result.status, exec::RunStatus::Ok);
}

// ---- exception-safe run_batch ----------------------------------------------

TEST_F(FaultTest, WorkerFaultsAreCapturedPerSlot) {
  faults::install_spec("worker:1");
  const auto circuit = small_circuit();
  const std::vector<exec::RunRequest> requests(3, {circuit, dm_config()});

  exec::ExecutionEngine engine;
  const auto results = engine.run_batch(requests);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, exec::RunStatus::Failed);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.record.error.find("injected worker fault"), std::string::npos);
    // The placeholder distribution keeps downstream index math in bounds.
    ASSERT_EQ(r.probabilities.size(), 8u);
    double total = 0.0;
    for (double p : r.probabilities) total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }

  // The engine and its pool survive: disarmed, the same engine runs clean and
  // matches a fresh engine bit for bit.
  faults::install_spec("");
  const auto after = engine.run_batch(requests);
  exec::ExecutionEngine fresh;
  const auto clean = fresh.run_batch(requests);
  ASSERT_EQ(after.size(), clean.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].status, exec::RunStatus::Ok);
    ASSERT_EQ(after[i].probabilities.size(), clean[i].probabilities.size());
    for (std::size_t k = 0; k < after[i].probabilities.size(); ++k)
      EXPECT_EQ(after[i].probabilities[k], clean[i].probabilities[k]);
  }
}

TEST_F(FaultTest, NanFaultTripsTheNormDriftGuard) {
  faults::install_spec("nan:1");
  exec::ExecutionEngine engine;
  const exec::RunRequest request{small_circuit(), trajectory_config(64)};
  // Direct run: the guard throws SimulationError out of the engine.
  EXPECT_THROW(engine.run(request), common::SimulationError);
  // Batched: the same failure is captured as a per-slot result.
  const auto results = engine.run_batch({request});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, exec::RunStatus::Failed);
  EXPECT_NE(results[0].record.error.find("simulation"), std::string::npos);
}

TEST_F(FaultTest, NonFaultedSlotsAreBitIdenticalToACleanRun) {
  // worker:0.5 fails some batch indices and spares others; the spared slots
  // must be untouched by their faulted siblings.
  const auto circuit = small_circuit();
  std::vector<exec::RunRequest> requests;
  for (int i = 0; i < 6; ++i) {
    exec::RunRequest req{circuit, trajectory_config(256)};
    req.config.seed = 100 + 31 * i;
    requests.push_back(std::move(req));
  }

  exec::ExecutionEngine clean_engine;
  const auto clean = clean_engine.run_batch(requests);

  faults::install_spec("worker:0.5,seed=12");
  std::size_t faulted = 0;
  exec::ExecutionEngine engine;
  const auto faulty = engine.run_batch(requests);
  ASSERT_EQ(faulty.size(), clean.size());
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (faulty[i].status == exec::RunStatus::Failed) {
      ++faulted;
      continue;
    }
    for (std::size_t k = 0; k < clean[i].probabilities.size(); ++k)
      EXPECT_EQ(faulty[i].probabilities[k], clean[i].probabilities[k])
          << "slot " << i << " outcome " << k;
  }
  EXPECT_GT(faulted, 0u) << "spec was expected to hit at least one of 6 slots";
  EXPECT_LT(faulted, faulty.size()) << "spec was expected to spare some slots";
}

// ---- deadlines through the engine ------------------------------------------

TEST(EngineDeadlineTest, ExpiredDeadlineReturnsFlaggedPartialResult) {
  exec::ExecutionEngine engine;
  exec::RunRequest request{small_circuit(), trajectory_config(4096)};
  request.deadline = common::Deadline::after_ms(-1);  // already expired

  const auto result = engine.run(request);
  EXPECT_EQ(result.status, exec::RunStatus::TimedOut);
  EXPECT_TRUE(result.record.timed_out);
  EXPECT_LT(result.record.completed_shots, 4096u);
  ASSERT_EQ(result.probabilities.size(), 8u);
  double total = 0.0;
  for (double p : result.probabilities) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);

  // Engine and pool are reusable: the same request unbounded completes.
  request.deadline = common::Deadline::never();
  const auto full = engine.run(request);
  EXPECT_EQ(full.status, exec::RunStatus::Ok);
  EXPECT_EQ(full.record.completed_shots, 4096u);
}

TEST(EngineDeadlineTest, DensityMatrixPathHonorsDeadlines) {
  exec::ExecutionEngine engine;
  exec::RunRequest request{small_circuit(), dm_config()};
  request.deadline = common::Deadline::after_ms(-1);
  const auto result = engine.run(request);
  EXPECT_EQ(result.status, exec::RunStatus::TimedOut);
  ASSERT_EQ(result.probabilities.size(), 8u);
}

TEST(SynthDeadlineTest, QSearchReturnsPartialFlaggedTimedOut) {
  common::Rng rng(5);
  const linalg::Matrix target = linalg::random_unitary(8, rng);
  synth::QSearchOptions options;
  options.max_nodes = 1 << 20;  // oversized: unbounded would run for a while
  options.deadline = common::Deadline::after_ms(50);
  const auto result = synth::qsearch_synthesize(target, 3, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.converged);
}

// ---- graceful degradation in the drivers -----------------------------------

TEST_F(FaultTest, GenerationFallsBackToTheExactReference) {
  faults::install_spec("synth:1");  // every attempt (and retry) fails
  ir::QuantumCircuit reference(2, "bell");
  reference.h(0);
  reference.cx(0, 1);

  approx::GeneratorConfig config;
  config.use_qsearch = true;
  config.qsearch.max_nodes = 4;

  approx::GenerationReport report;
  const auto circuits = approx::generate_from_reference(reference, config,
                                                        nullptr, &report);
  ASSERT_EQ(circuits.size(), 1u);
  EXPECT_EQ(circuits[0].source, "reference-fallback");
  EXPECT_DOUBLE_EQ(circuits[0].hs_distance, 0.0);
  EXPECT_EQ(circuits[0].cnot_count, 1u);
  EXPECT_TRUE(report.fell_back);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.failures, 2);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_NE(report.errors[0].find("qsearch"), std::string::npos);
}

TEST_F(FaultTest, CleanGenerationReportsNoDegradation) {
  ir::QuantumCircuit reference(2, "bell");
  reference.h(0);
  reference.cx(0, 1);
  approx::GeneratorConfig config;
  config.qsearch.max_nodes = 4;
  approx::GenerationReport report;
  const auto circuits = approx::generate_from_reference(reference, config,
                                                        nullptr, &report);
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.attempts, 1);
  EXPECT_FALSE(circuits.empty());
  for (const auto& c : circuits) EXPECT_NE(c.source, "reference-fallback");
}

TEST_F(FaultTest, ScatterStudyRetriesRecoverWorkerFaults) {
  const auto reference = small_circuit();
  std::vector<synth::ApproxCircuit> approximations(1);
  approximations[0].circuit = reference;
  approximations[0].hs_distance = 0.0;
  approximations[0].cnot_count = reference.count(ir::GateKind::CX);

  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b101;

  exec::ExecutionEngine clean_engine;
  const auto clean = approx::run_scatter_study(reference, approximations,
                                               dm_config(), metric, &clean_engine);

  // Worker faults key off the batch index, so the direct per-slot retry
  // inside run_scatter_study recovers every slot with identical results.
  faults::install_spec("worker:1");
  exec::ExecutionEngine engine;
  const auto study = approx::run_scatter_study(reference, approximations,
                                               dm_config(), metric, &engine);
  ASSERT_EQ(study.scores.size(), 1u);
  EXPECT_FALSE(study.scores[0].failed());
  EXPECT_EQ(study.scores[0].metric, clean.scores[0].metric);
  EXPECT_EQ(study.reference_metric, clean.reference_metric);
}

TEST_F(FaultTest, ScatterStudyAnnotatesPersistentFailures) {
  // NaN faults key off the per-shot stream seed, so the retry fails the same
  // way and the slot stays annotated instead of crashing the study.
  faults::install_spec("nan:1");
  const auto reference = small_circuit();
  std::vector<synth::ApproxCircuit> approximations(1);
  approximations[0].circuit = reference;
  approximations[0].hs_distance = 0.0;
  approximations[0].cnot_count = reference.count(ir::GateKind::CX);

  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b101;

  exec::ExecutionEngine engine;
  const auto study = approx::run_scatter_study(
      reference, approximations, trajectory_config(128), metric, &engine);
  ASSERT_EQ(study.scores.size(), 1u);
  EXPECT_TRUE(study.scores[0].failed());
  EXPECT_TRUE(std::isnan(study.scores[0].metric));
  EXPECT_FALSE(study.scores[0].error.empty());

  // Selection and statistics skip the failed entry without throwing.
  EXPECT_EQ(approx::best_by_max(study.scores), 0u);
  EXPECT_DOUBLE_EQ(
      approx::fraction_beating_reference(study.scores, study.reference_metric, true),
      0.0);
  EXPECT_DOUBLE_EQ(approx::precision_gain(study.scores, 0.5, 1.0), 0.0);
}

TEST(SelectionNanTest, SelectorsSkipFailedScores) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<approx::CircuitScore> scores(3);
  scores[0] = approx::CircuitScore{0, 4, 0.1, 0.2, ""};
  scores[1] = approx::CircuitScore{1, 2, 0.2, nan, ""};
  scores[2] = approx::CircuitScore{2, 1, 0.3, 0.9, ""};

  EXPECT_EQ(approx::best_by_max(scores), 2u);
  EXPECT_EQ(approx::best_by_min(scores), 0u);
  EXPECT_EQ(approx::best_by_target_value(scores, 0.15), 0u);
  // One valid winner of two valid entries.
  EXPECT_DOUBLE_EQ(approx::fraction_beating_reference(scores, 0.5, true), 0.5);

  std::vector<approx::CircuitScore> all_failed(2);
  all_failed[0] = approx::CircuitScore{0, 1, 0.1, nan, ""};
  all_failed[1] = approx::CircuitScore{1, 2, 0.2, nan, ""};
  EXPECT_EQ(approx::best_by_max(all_failed), 0u);
  EXPECT_DOUBLE_EQ(approx::fraction_beating_reference(all_failed, 0.5, true), 0.0);
  EXPECT_DOUBLE_EQ(approx::precision_gain(all_failed, 0.5, 1.0), 0.0);
}

TEST_F(FaultTest, TfimStudyCompletesUnderInjectedFaults) {
  faults::install_spec("synth:1,worker:0.25");
  algos::TfimModel model;
  approx::TfimStudyConfig cfg;
  cfg.model = model;
  cfg.steps = {2};
  cfg.generator = approx::tfim_generator_preset(3);
  cfg.generator.qsearch.max_nodes = 4;
  cfg.execution = dm_config();

  const auto study = approx::run_tfim_study(cfg);
  ASSERT_EQ(study.timesteps.size(), 1u);
  const auto& ts = study.timesteps[0];
  EXPECT_TRUE(ts.ok()) << ts.error;
  EXPECT_TRUE(ts.degraded);
  // synth:1 kills every generator, so the step ran on the reference fallback.
  ASSERT_EQ(ts.circuits.size(), 1u);
  EXPECT_EQ(ts.circuits[0].source, "reference-fallback");
  ASSERT_EQ(ts.scores.size(), 1u);
}

// ---- atomic file writes ----------------------------------------------------

TEST(AtomicWriteTest, WritesAndReplacesWithoutLeavingTmp) {
  const auto dir = std::filesystem::temp_directory_path() / "qapprox_io_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "out.csv").string();

  common::atomic_write_file(path, "first\n");
  common::atomic_write_file(path, "second\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(AtomicWriteTest, UnwritableDestinationThrows) {
  EXPECT_THROW(
      common::atomic_write_file("/nonexistent_dir_qapprox/x.csv", "data"),
      common::Error);
}

}  // namespace
}  // namespace qc
