// Scaling study for noise-aware partitioned resynthesis (google-benchmark):
// end-to-end resynthesize_partitioned on 6-10 qubit TFIM Trotter circuits at
// 10/25/50 steps — widths where whole-unitary search is hopeless and the old
// serial partition loop took seconds.
//
// Variants:
//   BM_PartitionResynth        cold: the process-wide synthesis cache is
//                              cleared outside the timed region, so every
//                              call pays for its unique blocks once. Intra-
//                              call dedupe still collapses recurring blocks.
//   BM_PartitionResynthWarm    steady-state serving: the cache stays warm
//                              across iterations, so repeat calls reuse
//                              every block search.
//   BM_PartitionConstantStep   a constant-parameter 50-step Trotter circuit
//                              (the same step repeated), where canonical
//                              dedupe alone collapses ~99% of the blocks.
//   BM_PartitionSerial/Parallel the bit-identical serial vs thread-pool
//                              schedules at 6q/25 (same results, wall-clock
//                              gap scales with cores).
//   BM_PartitionerDag/Linear   partitioner-only throughput (gates/s).
//
// Counters: blocks, unique (searched problems), dedupe_hits, cnot_reduction
// (1 - cx_after/cx_before), and reuse_rate = the fraction of resynthesis-
// eligible block instances that did NOT need a fresh search (intra-call
// dedupe + synthesis-cache hits; the cache counts ~2 lookups per problem —
// qsearch + qfactor — hence the /2).
//
// The binary always writes google-benchmark JSON to BENCH_partition.json
// (override with QAPPROX_BENCH_JSON); CI pins QAPPROX_SIMD=scalar and gates
// real_time against the committed baseline in results/BENCH_partition.json.
#include <benchmark/benchmark.h>

#include "gbench_main.hpp"

#include "algos/tfim.hpp"
#include "synth/cache.hpp"
#include "synth/partition.hpp"
#include "transpile/decompose.hpp"

namespace {

using namespace qc;

ir::QuantumCircuit ramped_tfim(int qubits, int steps) {
  algos::TfimModel model;
  model.num_qubits = qubits;
  model.num_steps = std::max(model.num_steps, steps);
  model.dt = 0.05;
  return model.circuit_up_to(steps);
}

// The same Trotter step repeated: the constant-parameter regime where every
// entangling block recurs identically (ramped_tfim's field grows per step,
// so only its pure-ZZ blocks recur).
ir::QuantumCircuit constant_tfim(int qubits, int steps) {
  algos::TfimModel model;
  model.num_qubits = qubits;
  model.dt = 0.05;
  ir::QuantumCircuit qc(qubits, "tfim_const");
  for (int s = 0; s < steps; ++s) qc.append(model.step_circuit(1));
  return qc;
}

synth::PartitionedSynthesisOptions bench_options() {
  synth::PartitionedSynthesisOptions opts;
  opts.block_qubits = 3;
  opts.block_hs_budget = 0.05;
  opts.qsearch.max_nodes = 24;
  opts.qsearch.max_cnots = 4;
  opts.qsearch.optimizer.max_iterations = 60;
  return opts;
}

void report(benchmark::State& state, const synth::PartitionedSynthesisResult& r) {
  const double eligible = static_cast<double>(r.unique_blocks + r.dedupe_hits);
  const double reused = static_cast<double>(r.dedupe_hits) +
                        static_cast<double>(r.cache_hits) / 2.0;
  state.counters["blocks"] = static_cast<double>(r.blocks_total);
  state.counters["unique"] = static_cast<double>(r.unique_blocks);
  state.counters["dedupe_hits"] = static_cast<double>(r.dedupe_hits);
  state.counters["reuse_rate"] =
      eligible > 0.0 ? std::min(1.0, reused / eligible) : 0.0;
  state.counters["cnot_reduction"] =
      r.cnots_before > 0
          ? 1.0 - static_cast<double>(r.cnots_after) /
                      static_cast<double>(r.cnots_before)
          : 0.0;
}

void bench_resynth(benchmark::State& state, const ir::QuantumCircuit& circuit,
                   bool warm, const synth::PartitionedSynthesisOptions& opts) {
  synth::PartitionedSynthesisResult last;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      synth::clear_synth_cache();
      state.ResumeTiming();
    }
    last = synth::resynthesize_partitioned(circuit, opts);
    benchmark::DoNotOptimize(last.cnots_after);
  }
  report(state, last);
}

void BM_PartitionResynth(benchmark::State& state) {
  const ir::QuantumCircuit circuit = ramped_tfim(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  bench_resynth(state, circuit, /*warm=*/false, bench_options());
}
BENCHMARK(BM_PartitionResynth)
    ->Args({8, 10})
    ->Args({8, 25})
    ->Args({8, 50})
    ->Args({10, 50})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionResynthWarm(benchmark::State& state) {
  const ir::QuantumCircuit circuit = ramped_tfim(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  synth::clear_synth_cache();
  bench_resynth(state, circuit, /*warm=*/true, bench_options());
}
BENCHMARK(BM_PartitionResynthWarm)->Args({8, 50})->Unit(benchmark::kMillisecond);

void BM_PartitionConstantStep(benchmark::State& state) {
  const ir::QuantumCircuit circuit = constant_tfim(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  bench_resynth(state, circuit, /*warm=*/false, bench_options());
}
BENCHMARK(BM_PartitionConstantStep)->Args({8, 50})->Unit(benchmark::kMillisecond);

void bench_schedule(benchmark::State& state, bool parallel) {
  const ir::QuantumCircuit circuit = ramped_tfim(6, 25);
  synth::PartitionedSynthesisOptions opts = bench_options();
  opts.parallel_blocks = parallel;
  common::ThreadPool pool(parallel ? 4 : 1);
  opts.pool = &pool;
  bench_resynth(state, circuit, /*warm=*/false, opts);
}

void BM_PartitionSerial(benchmark::State& state) {
  bench_schedule(state, false);
}
BENCHMARK(BM_PartitionSerial)->Unit(benchmark::kMillisecond);

void BM_PartitionParallel(benchmark::State& state) {
  bench_schedule(state, true);
}
BENCHMARK(BM_PartitionParallel)->Unit(benchmark::kMillisecond);

void BM_PartitionerDag(benchmark::State& state) {
  const ir::QuantumCircuit circuit =
      transpile::decompose_to_cx_u3(ramped_tfim(10, 50)).unitary_part();
  std::size_t blocks = 0;
  for (auto _ : state) {
    blocks = synth::partition_circuit_dag(circuit, 3).size();
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(circuit.size()));
  state.counters["blocks"] = static_cast<double>(blocks);
}
BENCHMARK(BM_PartitionerDag)->Unit(benchmark::kMicrosecond);

}  // namespace

QAPPROX_BENCH_MAIN("BENCH_partition.json")
