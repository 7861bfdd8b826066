#include "exec/engine.hpp"

#include <array>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "metrics/distribution.hpp"
#include "obs/obs.hpp"
#include "sim/statevector.hpp"
#include "transpile/routing.hpp"

namespace qc::exec {

namespace {

/// Per-phase duration histograms (ns). Sampled only while
/// obs::timing_enabled(); name contract documented in DESIGN.md §obs.
struct EngineTimers {
  obs::Histogram& run{obs::histogram("exec.run_ns")};
  obs::Histogram& transpile{obs::histogram("exec.transpile_ns")};
  obs::Histogram& model{obs::histogram("exec.model_ns")};
  obs::Histogram& compile{obs::histogram("exec.compile_ns")};
  obs::Histogram& evolve{obs::histogram("exec.evolve_ns")};
};

EngineTimers& timers() {
  static EngineTimers t;
  return t;
}

/// Mirrors one run's kernel dispatch classes (RunRecord::kernel_counts) into
/// the process-wide sim.kernel.* counters, one name per KernelKind label.
/// Each compiled step unitary's class counts once per run: noise operators
/// (ZZ crosstalk and over-rotation land on TwoQDiag) and per-shot
/// applications are never counted, so these are not kernel call counts.
void record_kernel_metrics(const linalg::KernelCounts& kc) {
  static const auto counters = [] {
    std::array<obs::Counter*, linalg::kNumKernelKinds> c{};
    for (std::size_t k = 0; k < c.size(); ++k)
      c[k] = &obs::counter(std::string("sim.kernel.") +
                           linalg::kernel_kind_name(static_cast<linalg::KernelKind>(k)));
    return c;
  }();
  for (std::size_t k = 0; k < counters.size(); ++k) counters[k]->add(kc.by_kind[k]);
}

}  // namespace

// ---- ExecutionConfig -------------------------------------------------------

ExecutionConfig ExecutionConfig::simulator(const noise::DeviceProperties& device) {
  ExecutionConfig cfg;
  cfg.device = device;
  cfg.optimization_level = 1;
  return cfg;
}

ExecutionConfig ExecutionConfig::hardware(const noise::DeviceProperties& device) {
  ExecutionConfig cfg;
  cfg.device = device;
  cfg.optimization_level = 3;
  cfg.use_trajectories = true;
  cfg.noise_options = noise::NoiseModelOptions::hardware();
  return cfg;
}

ExecutionConfig ExecutionConfig::noise_free(const noise::DeviceProperties& device) {
  ExecutionConfig cfg;
  cfg.device = device;
  cfg.ideal = true;
  cfg.optimization_level = 1;
  return cfg;
}

transpile::TranspileOptions ExecutionConfig::transpile_options() const {
  transpile::TranspileOptions topts;
  topts.optimization_level = optimization_level;
  topts.initial_layout = initial_layout;
  topts.router = router;
  return topts;
}

// ---- cache plumbing --------------------------------------------------------

template <typename K, typename V, typename Make>
std::shared_ptr<const V> ExecutionEngine::get_or_compute(SlotCache<K, V>& cache,
                                                         const K& key, bool* was_hit,
                                                         Make&& make) {
  const auto found = cache.find_or_insert(key, [] { return std::make_shared<Slot<V>>(); });
  if (was_hit) *was_hit = found.second;
  // Compute outside the cache lock: expensive work (transpilation, noise-model
  // construction) must not serialize unrelated cache lookups. call_once makes
  // concurrent requesters of the same key wait for one computation.
  Slot<V>& slot = *found.first;
  std::call_once(slot.once, [&] { slot.value = std::make_shared<const V>(make()); });
  return slot.value;
}

common::ThreadPool& ExecutionEngine::pool() {
  return owned_pool_ ? *owned_pool_ : common::ThreadPool::global();
}

ExecutionEngine::ExecutionEngine(EngineOptions options) : options_(options) {
  obs::init_from_env();
  if (options_.num_threads > common::kMaxThreadPoolSize) {
    QC_LOG_WARN("exec",
                "EngineOptions::num_threads=%zu exceeds the ceiling %zu; "
                "clamping",
                options_.num_threads, common::kMaxThreadPoolSize);
    options_.num_threads = common::kMaxThreadPoolSize;
  }
  if (options_.num_threads > 0)
    owned_pool_ = std::make_unique<common::ThreadPool>(options_.num_threads);
}

ExecutionEngine::~ExecutionEngine() = default;

ExecutionEngine& ExecutionEngine::global() {
  static ExecutionEngine engine;
  return engine;
}

CacheSnapshot ExecutionEngine::cache_stats_snapshot() const {
  const common::LruStats t = transpile_cache_.stats();
  const common::LruStats m = model_cache_.stats();
  const common::LruStats c = compiled_cache_.stats();
  CacheSnapshot snap;
  snap.stats = {t.hits, t.misses, t.evictions, m.hits, m.misses,
                m.evictions, c.hits, c.misses, c.evictions};
  snap.transpile_entries = t.entries;
  snap.model_entries = m.entries;
  snap.compiled_entries = c.entries;
  snap.cap = kEngineCacheCap;

  struct Row {
    const char* name;
    std::size_t hits, misses, evictions, entries;
  };
  const Row rows[] = {
      {"transpile", snap.stats.transpile_hits, snap.stats.transpile_misses,
       snap.stats.transpile_evictions, snap.transpile_entries},
      {"model", snap.stats.model_hits, snap.stats.model_misses,
       snap.stats.model_evictions, snap.model_entries},
      {"compiled", snap.stats.compiled_hits, snap.stats.compiled_misses,
       snap.stats.compiled_evictions, snap.compiled_entries},
  };
  for (const Row& row : rows) {
    const std::string prefix = std::string("exec.engine.cache.") + row.name;
    obs::gauge(prefix + ".hits").set(static_cast<std::int64_t>(row.hits));
    obs::gauge(prefix + ".misses").set(static_cast<std::int64_t>(row.misses));
    obs::gauge(prefix + ".evictions").set(static_cast<std::int64_t>(row.evictions));
    obs::gauge(prefix + ".entries").set(static_cast<std::int64_t>(row.entries));
  }
  return snap;
}

void ExecutionEngine::clear_caches() {
  transpile_cache_.reset();
  model_cache_.reset();
  compiled_cache_.reset();
}

// ---- cache keys ------------------------------------------------------------

ExecutionEngine::TranspileKey ExecutionEngine::make_transpile_key(
    const RunRequest& request) const {
  TranspileKey key;
  key.circuit_fp = request.circuit.fingerprint();
  key.device_fp = request.config.device.fingerprint();
  if (request.config.initial_layout) {
    std::uint64_t h = 0xa1b2c3d4e5f60718ULL;
    for (int p : *request.config.initial_layout)
      h = common::hash_combine(h, static_cast<std::uint64_t>(p));
    key.layout_fp = h;
  }
  key.level = request.config.optimization_level;
  key.router = static_cast<int>(request.config.router);
  key.circuit_qubits = request.circuit.num_qubits();
  key.circuit_gates = request.circuit.size();
  key.device_qubits = request.config.device.num_qubits();
  key.device_edges = request.config.device.coupling.num_edges();
  return key;
}

ExecutionEngine::ModelKey ExecutionEngine::make_model_key(
    const RunRequest& request, const transpile::TranspileResult& tr) const {
  ModelKey key;
  key.device_fp = request.config.device.fingerprint();
  key.options_fp = request.config.noise_options.fingerprint();
  std::uint64_t h = 0x7c0ffee5deadbeefULL;
  for (int p : tr.active_physical)
    h = common::hash_combine(h, static_cast<std::uint64_t>(p));
  key.subset_fp = h;
  key.device_qubits = request.config.device.num_qubits();
  key.device_edges = request.config.device.coupling.num_edges();
  key.subset_size = tr.active_physical.size();
  return key;
}

// ---- cached pipeline stages ------------------------------------------------

std::shared_ptr<const transpile::TranspileResult> ExecutionEngine::transpile_cached(
    const RunRequest& request, bool* hit) {
  const TranspileKey key = make_transpile_key(request);
  return get_or_compute(transpile_cache_, key, hit, [&] {
    return transpile::transpile(request.circuit, request.config.device,
                                request.config.transpile_options());
  });
}

std::shared_ptr<const noise::NoiseModel> ExecutionEngine::model_cached(
    const RunRequest& request, const transpile::TranspileResult& tr, bool* hit) {
  const ModelKey key = make_model_key(request, tr);
  return get_or_compute(model_cache_, key, hit, [&] {
    const noise::DeviceProperties sub = tr.restricted_device(request.config.device);
    return noise::NoiseModel::from_device(sub, request.config.noise_options);
  });
}

std::shared_ptr<const sim::CompiledCircuit> ExecutionEngine::compiled_cached(
    const TranspileKey& tkey, const ModelKey& mkey,
    const transpile::TranspileResult& tr, const noise::NoiseModel& model,
    bool* hit) {
  const CompiledKey key{tkey, mkey};
  return get_or_compute(compiled_cache_, key, hit,
                        [&] { return sim::compile_noisy_circuit(tr.circuit, model); });
}

std::shared_ptr<const sim::CompiledCircuit> ExecutionEngine::compiled_ideal_cached(
    const TranspileKey& tkey, const transpile::TranspileResult& tr, bool* hit) {
  const CompiledKey key{tkey, ModelKey{}, /*ideal=*/1};
  return get_or_compute(compiled_cache_, key, hit, [&] {
    return sim::compile_noisy_circuit(tr.circuit,
                                      noise::NoiseModel::ideal(tr.circuit.num_qubits()));
  });
}

// ---- execution -------------------------------------------------------------

std::vector<double> ExecutionEngine::trajectory_probabilities(
    const sim::CompiledCircuit& compiled, std::size_t shots, std::uint64_t seed,
    const common::Deadline& deadline, const obs::TraceContext& parent,
    RunRecord& rec) {
  QC_CHECK(shots > 0);
  const std::size_t num_trees = (shots + kMaxShotsPerTree - 1) / kMaxShotsPerTree;
  obs::Span span("exec.trajectories", parent);
  if (span.active()) {
    span.arg("shots", shots);
    span.arg("trees", num_trees);
  }
  static obs::Counter& shot_counter = obs::counter("sim.trajectory_shots");
  // Leaf states of the shot trees: unique evolutions per shot is their ratio
  // to sim.trajectory_shots.
  static obs::Counter& leaf_counter = obs::counter("sim.trajectory.unique_evolutions");
  std::vector<std::uint64_t> counts(std::size_t{1} << compiled.num_qubits, 0);
  std::mutex merge_mutex;
  std::size_t completed_total = 0;
  std::size_t leaves_total = 0;
  // One shot tree shares every common branch prefix of the run; only a run
  // above kMaxShotsPerTree splits, into consecutive ranges on the pool. A
  // shot's outcome depends only on its own counter-derived stream and pick
  // history, not on the range it shares a tree with, so the merged integer
  // counts are bit-identical for every split, pool size and merge order. (A
  // timed-out run is the exception: which shots finish before expiry
  // depends on thread scheduling, so partial results are flagged, not
  // reproducible.)
  const obs::TraceContext traj_ctx = span.context();  // pool threads parent here
  pool().parallel_for(0, num_trees, [&](std::size_t t) {
    obs::Span tree_span("exec.traj_block", traj_ctx);
    const std::size_t begin = t * kMaxShotsPerTree;
    const std::size_t end = std::min(shots, begin + kMaxShotsPerTree);
    if (tree_span.active()) tree_span.arg("shots", end - begin);
    std::size_t completed = 0;
    std::size_t leaves = 0;
    const auto local = sim::trajectory_counts_streamed(compiled, begin, end, seed,
                                                       deadline, &completed, &leaves);
    if (tree_span.active()) tree_span.arg("leaves", leaves);
    std::lock_guard<std::mutex> lock(merge_mutex);
    completed_total += completed;
    leaves_total += leaves;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += local[i];
  });
  shot_counter.add(completed_total);
  leaf_counter.add(leaves_total);
  rec.completed_shots = completed_total;
  rec.timed_out = completed_total < shots;
  if (completed_total == 0) {
    // Nothing finished before expiry: uniform placeholder (flagged timed_out).
    return std::vector<double>(counts.size(), 1.0 / static_cast<double>(counts.size()));
  }
  return metrics::counts_to_distribution(counts);
}

RunResult ExecutionEngine::run(const RunRequest& request) {
  obs::Span run_span("exec.run", request.trace_parent, &timers().run);
  // Phase spans chain under exec.run; a request with a trace context (served
  // jobs) therefore exports transpile/model/compile/evolve as children of
  // the caller's trace rather than as disconnected top-level slices.
  const obs::TraceContext run_ctx = run_span.context();
  static obs::Counter& runs_counter = obs::counter("exec.runs");
  runs_counter.add(1);
  common::Stopwatch watch;
  // Per-request bound wins; otherwise the QAPPROX_DEADLINE_MS process default
  // (its countdown starts here, covering this run only).
  const common::Deadline deadline =
      request.deadline.bounded() ? request.deadline : common::Deadline::from_env();
  RunResult result;
  RunRecord& rec = result.record;
  rec.trace_id = run_ctx.trace_id;

  std::shared_ptr<const transpile::TranspileResult> tr;
  {
    obs::Span span("exec.transpile", run_ctx, &timers().transpile);
    tr = transpile_cached(request, &rec.transpile_cache_hit);
    rec.transpiled_cx = tr->circuit.count(ir::GateKind::CX);
    rec.transpiled_depth = tr->circuit.depth();
    rec.added_swaps = tr->added_swaps;
    rec.initial_layout = tr->initial_layout;
    rec.active_physical = tr->active_physical;
    if (span.active()) {
      span.arg("cache_hit", rec.transpile_cache_hit);
      span.arg("cx", rec.transpiled_cx);
      span.arg("depth", rec.transpiled_depth);
      span.arg("swaps", rec.added_swaps);
    }
  }

  // Every engine runs the same cached, step-fused compiled program; they
  // differ only in how they evolve it.
  std::shared_ptr<const sim::CompiledCircuit> compiled;
  std::shared_ptr<const noise::NoiseModel> model;
  if (request.config.ideal) {
    rec.engine = "ideal";
    obs::Span span("exec.compile", run_ctx, &timers().compile);
    compiled = compiled_ideal_cached(make_transpile_key(request), *tr,
                                     &rec.compiled_cache_hit);
    if (span.active()) span.arg("cache_hit", rec.compiled_cache_hit);
  } else {
    {
      obs::Span span("exec.model", run_ctx, &timers().model);
      model = model_cached(request, *tr, &rec.noise_model_cache_hit);
      if (span.active()) span.arg("cache_hit", rec.noise_model_cache_hit);
    }
    obs::Span span("exec.compile", run_ctx, &timers().compile);
    compiled = compiled_cached(make_transpile_key(request),
                               make_model_key(request, *tr), *tr, *model,
                               &rec.compiled_cache_hit);
    if (span.active()) span.arg("cache_hit", rec.compiled_cache_hit);
  }
  rec.compiled_steps = compiled->steps.size();
  rec.source_gates = compiled->source_gates;
  rec.fused_gates = compiled->fused_gates;
  rec.fused_blocks_by_k = compiled->fused_blocks_by_k;
  rec.kernel_counts = compiled->kernel_counts;
  record_kernel_metrics(rec.kernel_counts);

  std::vector<double> probs;
  {
    obs::Span span("exec.evolve", run_ctx, &timers().evolve);
    if (request.config.ideal) {
      probs = sim::statevector_probabilities(*compiled, deadline, &rec.timed_out);
    } else if (request.config.use_trajectories) {
      rec.engine = "traj:" + model->device_name();
      rec.shots = request.config.shots;
      probs = trajectory_probabilities(*compiled, request.config.shots,
                                       request.config.seed, deadline,
                                       span.context(), rec);
    } else {
      rec.engine = "dm:" + model->device_name();
      probs = sim::density_matrix_probabilities(*compiled, deadline, &rec.timed_out);
    }
    if (span.active()) span.arg("engine", rec.engine);
  }
  result.probabilities = transpile::unpermute_distribution(probs, tr->wire_of_virtual);
  if (rec.timed_out) {
    result.status = RunStatus::TimedOut;
    static obs::Counter& timeouts = obs::counter("exec.runs_timed_out");
    timeouts.add(1);
  }
  rec.wall_ms = watch.millis();
  if (run_span.active()) {
    run_span.arg("engine", rec.engine);
    run_span.arg("compiled_steps", rec.compiled_steps);
    run_span.arg("status", run_status_name(result.status));
  }
  return result;
}

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::Ok: return "ok";
    case RunStatus::TimedOut: return "timed_out";
    case RunStatus::Failed: return "failed";
  }
  return "unknown";
}

namespace {

/// A RunStatus::Failed placeholder: uniform distribution over the request
/// circuit's outcome space (so downstream index math stays in bounds) plus
/// the error recorded for annotation.
RunResult failed_result(const RunRequest& request, const common::Error& e) {
  RunResult result;
  result.status = RunStatus::Failed;
  result.record.engine = "failed";
  result.record.error = std::string(e.kind()) + ": " + e.what();
  const std::size_t dim = std::size_t{1} << request.circuit.num_qubits();
  result.probabilities.assign(dim, 1.0 / static_cast<double>(dim));
  return result;
}

}  // namespace

std::vector<RunResult> ExecutionEngine::run_batch(
    const std::vector<RunRequest>& requests) {
  obs::Span span("exec.run_batch");
  if (span.active()) span.arg("requests", requests.size());
  static obs::Counter& failed_counter = obs::counter("exec.runs_failed");
  std::vector<RunResult> results(requests.size());
  // Each task owns exactly one result slot; a throwing task is captured in
  // place as a Failed result, so one bad request can never tear down the pool
  // or drop its siblings' outputs.
  pool().parallel_for(0, requests.size(), [&](std::size_t i) {
    try {
      if (common::faults::enabled()) {
        const std::uint64_t stream =
            requests[i].fault_stream == RunRequest::kFaultStreamFromBatchIndex
                ? i
                : requests[i].fault_stream;
        common::faults::maybe_delay(stream);
        if (common::faults::fires(common::faults::Site::WorkerThrow, stream))
          throw common::SimulationError("injected worker fault (stream " +
                                        std::to_string(stream) + ")");
      }
      results[i] = run(requests[i]);
    } catch (const common::Error& e) {
      results[i] = failed_result(requests[i], e);
      failed_counter.add(1);
      QC_LOG_ERROR("exec", "run_batch request %zu failed: %s", i, e.what());
    } catch (const std::exception& e) {
      results[i] = failed_result(requests[i], common::Error(e.what()));
      failed_counter.add(1);
      QC_LOG_ERROR("exec", "run_batch request %zu failed: %s", i, e.what());
    }
  });
  // Refresh the exec.engine.cache.* gauges once per batch, so metrics
  // exports from any batch-driving binary carry per-engine cache state
  // without an explicit snapshot call.
  (void)cache_stats_snapshot();
  return results;
}

}  // namespace qc::exec
