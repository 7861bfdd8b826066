#include "serve/jobs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "algos/grover.hpp"
#include "algos/mct.hpp"
#include "algos/tfim.hpp"
#include "approx/tfim_study.hpp"
#include "approx/workflow.hpp"
#include "common/driver.hpp"
#include "common/error.hpp"
#include "ir/qasm.hpp"
#include "metrics/distribution.hpp"
#include "sim/observables.hpp"
#include "synth/qsearch.hpp"

namespace qc::serve {

namespace json = common::json;
namespace driver = common::driver;

namespace {

/// Wire parameters are the client's input, not an invariant: a rejection
/// carries the message alone, without the failed expression or the source
/// location.
void require(bool ok, const std::string& message) {
  if (!ok) throw common::ContractError(message);
}

int checked_qubits(const json::Value& params, int fallback, int max_qubits) {
  const std::int64_t q = params.get_int("qubits", fallback);
  require(q >= 1 && q <= max_qubits,
          "\"qubits\" out of range [1, " + std::to_string(max_qubits) + "]");
  return static_cast<int>(q);
}

std::string outcome_bits(std::size_t index, int num_qubits) {
  std::string bits(static_cast<std::size_t>(num_qubits), '0');
  for (int q = 0; q < num_qubits; ++q)
    if ((index >> q) & 1u) bits[static_cast<std::size_t>(num_qubits - 1 - q)] = '1';
  return bits;
}

/// Test hooks for the durability machinery (both capped so a stray request
/// cannot park a worker for long):
///
///   "sleep_ms" — cooperative stall: sleeps in short chunks, polling the
///   deadline each chunk (which also bumps the watchdog's progress beacon),
///   and winds down early when cancelled. Exercises strike-1 cancellation
///   and chaos-harness kill windows without ever being reaped.
///
///   "hang_ms" — uncooperative stall: sleeps through the whole budget while
///   ignoring the deadline entirely, exactly like a job wedged in
///   non-polling code. The watchdog's strike 2 reaps it; the bounded
///   duration keeps stop() joinable in tests.
void run_stall_hooks(const json::Value& params,
                     const common::Deadline& deadline) {
  const std::int64_t sleep_ms = params.get_int("sleep_ms", 0);
  require(sleep_ms >= 0 && sleep_ms <= 60000,
          "\"sleep_ms\" out of range [0, 60000]");
  if (sleep_ms > 0) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(sleep_ms);
    while (std::chrono::steady_clock::now() < until) {
      if (deadline.expired()) break;  // cancelled or out of time: wind down
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const std::int64_t hang_ms = params.get_int("hang_ms", 0);
  require(hang_ms >= 0 && hang_ms <= 60000,
          "\"hang_ms\" out of range [0, 60000]");
  if (hang_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(hang_ms));
}

}  // namespace

Workload build_workload(const json::Value& params) {
  Workload w;
  w.name = params.get_string("workload", "tfim");
  if (w.name == "tfim") {
    algos::TfimModel model;
    model.num_qubits = checked_qubits(params, 3, 6);
    const std::int64_t steps = params.get_int("steps", 5);
    require(steps >= 1 && steps <= 64, "\"steps\" out of range [1, 64]");
    model.num_steps = std::max(model.num_steps, static_cast<int>(steps));
    w.circuit = model.circuit_up_to(static_cast<int>(steps));
    w.metric = "magnetization";
  } else if (w.name == "grover") {
    const int qubits = checked_qubits(params, 3, 6);
    const std::uint64_t all_ones = (1ull << qubits) - 1;
    const std::int64_t marked = params.get_int("marked", static_cast<std::int64_t>(all_ones));
    require(marked >= 0 && static_cast<std::uint64_t>(marked) <= all_ones,
            "\"marked\" outside the outcome space");
    const std::int64_t iterations = params.get_int("iterations", 0);
    require(iterations >= 0 && iterations <= 64, "\"iterations\" out of range");
    w.marked = static_cast<std::uint64_t>(marked);
    w.circuit = algos::grover_circuit(qubits, w.marked, static_cast<int>(iterations));
    w.metric = "success_probability";
  } else if (w.name == "mct") {
    const int qubits = checked_qubits(params, 3, 6);
    require(qubits >= 2, "mct needs at least 2 qubits");
    w.circuit = algos::mct_battery_circuit(qubits);
    w.metric = "js_to_ideal";
  } else if (w.name == "qasm") {
    const json::Value* text = params.find("qasm");
    require(text != nullptr && text->is_string(),
            "workload \"qasm\" needs a string field \"qasm\"");
    w.circuit = ir::from_qasm(text->as_string());
    require(w.circuit.num_qubits() <= 12,
            "inline qasm capped at 12 qubits per job");
  } else {
    throw common::ContractError("unknown workload \"" + w.name +
                                "\" (tfim | grover | mct | qasm)");
  }
  return w;
}

JobOutcome run_simulate_job(const json::Value& params,
                            const common::Deadline& deadline,
                            const obs::TraceContext& trace) {
  driver::init_runtime();
  run_stall_hooks(params, deadline);
  const Workload workload = build_workload(params);

  exec::RunRequest req;
  req.trace_parent = trace;
  req.circuit = workload.circuit;
  req.config = driver::execution_config(params.get_string("device", "santiago"),
                                        params.get_string("mode", "simulator"));
  const std::int64_t shots = params.get_int(
      "shots", static_cast<std::int64_t>(req.config.shots));
  require(shots >= 1 && static_cast<std::size_t>(shots) <= driver::kMaxShots,
          "\"shots\" out of range");
  req.config.shots = static_cast<std::size_t>(shots);
  req.config.seed = static_cast<std::uint64_t>(
      params.get_int("seed", static_cast<std::int64_t>(driver::default_seed(11))));
  req.deadline = deadline;
  // Single-element batches would all draw fault stream 0 (the batch index);
  // key the stream to the job instead so QAPPROX_FAULTS probabilities mean
  // the same thing under the server as under a batch driver.
  req.fault_stream = req.circuit.fingerprint() ^ req.config.seed;

  // A single-element batch rather than run(): batch slots capture injected
  // worker faults as Failed results instead of letting them unwind the
  // caller, which is exactly the containment a multi-tenant server needs.
  const exec::RunResult run = driver::engine().run_batch({req}).at(0);
  if (run.status == exec::RunStatus::Failed)
    throw common::SimulationError(run.record.error.empty() ? "run failed"
                                                           : run.record.error);

  const int n = workload.circuit.num_qubits();
  json::Value result = json::Value::object();
  result.set("workload", workload.name);
  result.set("qubits", n);
  result.set("engine", run.record.engine);
  result.set("shots", run.record.shots);
  result.set("completed_shots", run.record.completed_shots);
  result.set("transpiled_cx", run.record.transpiled_cx);
  result.set("transpiled_depth", run.record.transpiled_depth);
  result.set("wall_ms", run.record.wall_ms);
  result.set("timed_out", run.record.timed_out);

  if (workload.metric == "magnetization") {
    result.set("magnetization", sim::average_z_magnetization(run.probabilities));
  } else if (workload.metric == "success_probability") {
    result.set("success_probability",
               metrics::success_probability(run.probabilities,
                                            static_cast<std::size_t>(workload.marked)));
  } else if (workload.metric == "js_to_ideal") {
    result.set("js_to_ideal",
               metrics::js_distance(run.probabilities,
                                    algos::mct_battery_ideal_distribution(n)));
  }

  // Top-k outcomes by probability (bitstrings in circuit wire order).
  const std::int64_t top_k_arg = params.get_int("top_k", 8);
  require(top_k_arg >= 0 && top_k_arg <= 64, "\"top_k\" out of range");
  std::vector<std::size_t> order(run.probabilities.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t top_k =
      std::min(order.size(), static_cast<std::size_t>(top_k_arg));
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top_k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return run.probabilities[a] > run.probabilities[b];
                    });
  json::Value outcomes = json::Value::array();
  for (std::size_t i = 0; i < top_k; ++i) {
    json::Value entry = json::Value::object();
    entry.set("outcome", outcome_bits(order[i], n));
    entry.set("p", run.probabilities[order[i]]);
    outcomes.push_back(std::move(entry));
  }
  result.set("top_outcomes", std::move(outcomes));

  JobOutcome out;
  out.result = std::move(result);
  if (run.status == exec::RunStatus::TimedOut) {
    out.degraded = true;
    out.why = "deadline expired; distribution is a flagged partial result";
  }
  return out;
}

JobOutcome run_synthesize_job(const json::Value& params,
                              const common::Deadline& deadline,
                              const obs::TraceContext& trace) {
  driver::init_runtime();
  run_stall_hooks(params, deadline);
  const std::string preset = params.get_string("preset", "tfim");
  const bool fast = params.get_bool("fast", true);

  ir::QuantumCircuit reference;
  approx::GeneratorConfig gen;
  if (preset == "tfim") {
    json::Value shape = params;  // workload fields share the simulate schema
    shape.set("workload", "tfim");
    reference = build_workload(shape).circuit;
    gen = approx::tfim_generator_preset(reference.num_qubits(), fast);
  } else if (preset == "grover") {
    json::Value shape = params;
    shape.set("workload", "grover");
    reference = build_workload(shape).circuit;
    gen = approx::grover_generator_preset(fast);
  } else if (preset == "toffoli") {
    const int qubits = checked_qubits(params, 3, 6);
    reference = algos::mct_reference_circuit(qubits);
    gen = approx::toffoli_generator_preset(qubits, fast);
  } else if (preset == "partition") {
    // Partitioned resynthesis never computes the whole-circuit unitary, so
    // it serves widths the other presets cannot (TFIM up to 10 qubits here
    // vs build_workload's 6, or inline qasm up to the 12-qubit cap).
    if (params.find("qasm") != nullptr) {
      json::Value shape = params;
      shape.set("workload", "qasm");
      reference = build_workload(shape).circuit;
    } else {
      algos::TfimModel model;
      model.num_qubits = checked_qubits(params, 3, 10);
      const std::int64_t steps = params.get_int("steps", 10);
      require(steps >= 1 && steps <= 64, "\"steps\" out of range [1, 64]");
      model.num_steps = std::max(model.num_steps, static_cast<int>(steps));
      reference = model.circuit_up_to(static_cast<int>(steps));
    }
    gen.use_qsearch = false;
    gen.use_partition = true;
    const std::int64_t block_qubits = params.get_int("block_qubits", 3);
    require(block_qubits >= 2 && block_qubits <= 4,
            "\"block_qubits\" out of range [2, 4]");
    gen.partition.block_qubits = static_cast<int>(block_qubits);
    gen.partition.block_hs_budget =
        params.get_number("block_hs_budget", gen.partition.block_hs_budget);
    // total_hs_budget switches to the global allocator (noise-weighted when
    // the job names a device below).
    gen.partition.total_hs_budget = params.get_number("total_hs_budget", 0.0);
    gen.partition.qsearch.max_nodes = fast ? 10 : 24;
    gen.partition.qsearch.max_cnots = 4;
    gen.partition.qsearch.optimizer.max_iterations = 60;
    gen.hs_threshold = 1e9;  // per-block sums; selection happens per block
  } else {
    throw common::ContractError("unknown preset \"" + preset +
                                "\" (tfim | grover | toffoli | partition)");
  }

  gen.hs_threshold = params.get_number("hs_threshold", gen.hs_threshold);
  const std::int64_t max_circuits = params.get_int(
      "max_circuits", static_cast<std::int64_t>(gen.max_circuits));
  require(max_circuits >= 1 && max_circuits <= 1000,
          "\"max_circuits\" out of range [1, 1000]");
  gen.max_circuits = static_cast<std::size_t>(max_circuits);
  gen.deadline = deadline;

  const noise::CouplingMap line = noise::CouplingMap::line(reference.num_qubits());
  const noise::CouplingMap* coupling = &line;
  const std::string device_name = params.get_string("device", "");
  const noise::DeviceProperties* device = nullptr;
  if (!device_name.empty()) device = &driver::device(device_name);
  if (device != nullptr) coupling = &device->coupling;
  // The partition budget allocator weighs blocks by calibration noise when
  // the job names a device.
  if (gen.use_partition) gen.partition.device = device;

  approx::GenerationReport report;
  std::vector<synth::ApproxCircuit> circuits;
  {
    // The harvest is the job's whole execution phase; parenting it here puts
    // the synthesis wall time inside the served job's trace.
    obs::Span span("synth.generate", trace);
    circuits = approx::generate_from_reference(reference, gen, coupling, &report);
    if (span.active()) {
      span.arg("preset", preset);
      span.arg("circuits", circuits.size());
      span.arg("attempts", report.attempts);
    }
  }

  json::Value result = json::Value::object();
  result.set("preset", preset);
  result.set("qubits", reference.num_qubits());
  result.set("reference_cnots", reference.count(ir::GateKind::CX));
  result.set("num_circuits", circuits.size());

  json::Value cloud = json::Value::array();
  for (const synth::ApproxCircuit& c : circuits) {
    json::Value entry = json::Value::object();
    entry.set("cnots", c.cnot_count);
    entry.set("hs", c.hs_distance);
    entry.set("source", c.source);
    cloud.push_back(std::move(entry));
  }
  result.set("circuits", std::move(cloud));

  if (!circuits.empty()) {
    const auto best = std::min_element(
        circuits.begin(), circuits.end(),
        [](const synth::ApproxCircuit& a, const synth::ApproxCircuit& b) {
          return a.hs_distance < b.hs_distance;
        });
    json::Value best_json = json::Value::object();
    best_json.set("cnots", best->cnot_count);
    best_json.set("hs", best->hs_distance);
    best_json.set("source", best->source);
    if (params.get_bool("include_qasm", false))
      best_json.set("qasm", ir::to_qasm(best->circuit));
    result.set("best", std::move(best_json));
  }

  json::Value rep = json::Value::object();
  rep.set("attempts", report.attempts);
  rep.set("failures", report.failures);
  rep.set("retries", report.retries);
  rep.set("timed_out", report.timed_out);
  rep.set("fell_back", report.fell_back);
  rep.set("synth_cache_hits", report.synth_cache_hits);
  rep.set("synth_cache_misses", report.synth_cache_misses);
  if (gen.use_partition) {
    json::Value part = json::Value::object();
    part.set("blocks_total", report.partition_blocks);
    part.set("blocks_resynthesized", report.partition_blocks_resynthesized);
    part.set("unique_blocks", report.partition_unique_blocks);
    part.set("dedupe_hits", report.partition_dedupe_hits);
    part.set("block_failures", report.partition_block_failures);
    rep.set("partition", std::move(part));
  }
  result.set("report", std::move(rep));

  JobOutcome out;
  out.result = std::move(result);
  if (report.degraded()) {
    out.degraded = true;
    out.why = report.fell_back  ? "harvest fell back to the exact reference"
              : report.timed_out ? "deadline truncated the harvest"
              : report.failures > 0
                  ? "a synthesis tool failed and was retried/dropped"
                  : "some partition blocks failed and passed through unchanged";
  }
  return out;
}

}  // namespace qc::serve
