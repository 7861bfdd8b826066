// Microbenchmarks (google-benchmark) for the synthesis hot path: the HS cost
// value and its analytic gradient, the reducer's boundary gradient, the
// QSearch frontier (serial vs parallel children), the incremental QFactor
// sweep, and the synthesis result cache.
//
// The binary always writes the full results as google-benchmark JSON to
// BENCH_synth.json in the working directory (override the path with
// QAPPROX_BENCH_JSON); CI compares real_time against the committed baseline
// in results/BENCH_synth.json and warns on >25% regressions. BM_QSearch*
// report node-optimizations/s via items_per_second; BM_SynthCache* carry a
// hit_rate counter.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "gbench_main.hpp"

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ir/circuit.hpp"
#include "linalg/factories.hpp"
#include "synth/cache.hpp"
#include "synth/cost.hpp"
#include "synth/qfactor.hpp"
#include "synth/qsearch.hpp"
#include "synth/template.hpp"

namespace {

using namespace qc;

// ---- cost and gradient ----------------------------------------------------
//
// One cost object at a random point: the fidelity-gap value (a unitary
// build plus the trace) and the analytic gradient sweep, O(m·dim²) — about
// two unitary builds for all P partials. The gradient rows repeat one point,
// so after the first call they reuse its U3 trig, as a gradient after an
// accepted line-search value does; {3, 6} is tfim_dm's shape (3 qubits at
// the TFIM preset's 6-CNOT cap).

synth::TemplateCircuit grad_template(int num_qubits, int blocks) {
  synth::TemplateCircuit tpl = synth::TemplateCircuit::u3_layer(num_qubits);
  for (int b = 0; b < blocks; ++b)
    tpl.add_qsearch_block(b % (num_qubits - 1), (b % (num_qubits - 1)) + 1);
  return tpl;
}

struct CostPoint {
  synth::TemplateCircuit tpl;
  synth::HsCost cost;
  std::vector<double> x;
};

CostPoint cost_point(int n, int blocks) {
  common::Rng rng(11);
  synth::TemplateCircuit tpl = grad_template(n, blocks);
  synth::HsCost cost(tpl, linalg::random_unitary(std::size_t{1} << n, rng));
  std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);
  return {tpl, std::move(cost), std::move(x)};
}

void BM_GradientAnalytic(benchmark::State& state) {
  const CostPoint p = cost_point(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  std::vector<double> grad;
  for (auto _ : state) {
    p.cost.gradient(p.x, grad);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["params"] = static_cast<double>(p.tpl.num_params());
}
BENCHMARK(BM_GradientAnalytic)->Args({3, 4})->Args({3, 6})->Args({4, 6});

void BM_HsCostValue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CostPoint p = cost_point(n, 2 * n);
  // Alternates between two points, as a line search moves: the cost keeps
  // the trig of its last point, and a repeat would skip it.
  std::vector<double> mirrored = p.x;
  for (auto& v : mirrored) v = -v;
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.cost(flip ? mirrored : p.x));
    flip = !flip;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["params"] = static_cast<double>(p.tpl.num_params());
}
BENCHMARK(BM_HsCostValue)->Arg(3)->Arg(4);

// ---- reducer boundary gradient ----------------------------------------------
//
// One central-difference gradient of the reducer's boundary cost over its 6n
// angles, at a fixed random point: 12n probes, each restarted from the
// checkpointed product before its op.

void BM_BoundaryGradient(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::size_t dim = std::size_t{1} << n;
  common::Rng rng(15);
  const linalg::Matrix target = linalg::random_unitary(dim, rng);
  const linalg::Matrix kept = linalg::random_unitary(dim, rng);
  std::vector<double> x(static_cast<std::size_t>(6 * n));
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);
  std::vector<double> grad;
  std::vector<linalg::Matrix> checkpoints;
  linalg::Matrix scratch;
  for (auto _ : state) {
    synth::boundary_gap_gradient(target, kept, x, 1e-6, grad, checkpoints, scratch);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["params"] = static_cast<double>(x.size());
}
BENCHMARK(BM_BoundaryGradient)->Arg(3)->Arg(4);

// ---- qsearch frontier ------------------------------------------------------
//
// A full bounded search; items_per_second = node-optimizations/s. The serial
// and parallel variants are bit-identical in output (asserted in the test
// suite); this pair measures the wall-clock gap.

void bench_qsearch(benchmark::State& state, bool parallel) {
  common::Rng rng(12);
  const linalg::Matrix target = linalg::random_unitary(8, rng);
  synth::QSearchOptions opts;
  opts.max_nodes = 8;
  opts.max_cnots = 4;
  opts.optimizer.max_iterations = 40;
  opts.parallel_children = parallel;
  std::int64_t nodes = 0;
  for (auto _ : state) {
    synth::clear_synth_cache();  // measure the search, not a memoized lookup
    const synth::QSearchResult res = synth::qsearch_synthesize(target, 3, opts);
    nodes += res.nodes_optimized;
    benchmark::DoNotOptimize(res.best.hs_distance);
  }
  state.SetItemsProcessed(nodes);
}

void BM_QSearchSerial(benchmark::State& state) { bench_qsearch(state, false); }
BENCHMARK(BM_QSearchSerial)->Unit(benchmark::kMillisecond);

void BM_QSearchParallel(benchmark::State& state) { bench_qsearch(state, true); }
BENCHMARK(BM_QSearchParallel)->Unit(benchmark::kMillisecond);

// ---- qfactor sweeps --------------------------------------------------------

ir::QuantumCircuit qfactor_structure(int n, int blocks) {
  ir::QuantumCircuit structure(n);
  for (int b = 0; b < blocks; ++b) {
    const int a = b % (n - 1);
    structure.cx(a, a + 1);
    structure.u3(0.2, 0.1, -0.1, a);
    structure.u3(0.3, -0.2, 0.2, a + 1);
  }
  return structure;
}

void BM_QFactorSweepIncremental(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(13);
  const linalg::Matrix target =
      linalg::random_unitary(std::size_t{1} << n, rng);
  const ir::QuantumCircuit structure = qfactor_structure(n, 3 * n);
  synth::QFactorOptions opts;
  opts.max_sweeps = 1;
  for (auto _ : state) {
    synth::clear_synth_cache();  // measure the sweep, not a memoized lookup
    benchmark::DoNotOptimize(synth::qfactor_optimize(structure, target, opts).sweeps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QFactorSweepIncremental)->Arg(3)->Arg(5);

// ---- synthesis cache -------------------------------------------------------
//
// First iteration computes, the rest hit; hit_rate reports the fraction of
// lookups served from the cache over the whole run.

void BM_SynthCacheHit(benchmark::State& state) {
  common::Rng rng(14);
  const linalg::Matrix target = linalg::random_unitary(8, rng);
  synth::QSearchOptions opts;
  opts.max_nodes = 4;
  opts.max_cnots = 3;
  opts.optimizer.max_iterations = 30;
  synth::clear_synth_cache();
  const synth::SynthCacheStats before = synth::synth_cache_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::qsearch_synthesize(target, 3, opts).nodes_optimized);
  }
  const synth::SynthCacheStats after = synth::synth_cache_stats();
  const double lookups =
      static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));
  state.counters["hit_rate"] =
      lookups > 0.0 ? static_cast<double>(after.hits - before.hits) / lookups : 0.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SynthCacheHit);

}  // namespace

QAPPROX_BENCH_MAIN("BENCH_synth.json")
