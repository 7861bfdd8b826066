// Microbenchmarks (google-benchmark) for the hot kernels: state-vector
// kernel application, density-matrix channel application, template unitary
// builds (the synthesis inner loop), GEMM and expm — plus head-to-head
// generic-path vs specialized-kernel comparisons on wide states.
//
// The binary always writes the full results as google-benchmark JSON to
// BENCH_kernels.json in the working directory (override the path with
// QAPPROX_BENCH_JSON), so CI can archive machine-readable baselines; the
// usual console table still goes to stdout. Kernel-vs-generic pairs carry an
// `ns_per_amp` counter (nanoseconds per state amplitude per application) as
// the machine-size-independent figure of merit.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/driver.hpp"
#include "gbench_main.hpp"

#include "algos/tfim.hpp"
#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "obs/obs.hpp"
#include "ir/circuit.hpp"
#include "linalg/embed.hpp"
#include "linalg/expm.hpp"
#include "linalg/factories.hpp"
#include "linalg/kernels.hpp"
#include "noise/channel.hpp"
#include "sim/density_matrix.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "synth/cache.hpp"
#include "synth/qfactor.hpp"
#include "synth/cost.hpp"
#include "synth/template.hpp"

namespace {

using namespace qc;

/// rho on n qubits through a two-qubit depolarizing channel on `qubits`. The
/// channel's Kraus operators are planned once, as a compiled program plans
/// them, so the loop times the channel application alone.
void time_depolarizing(benchmark::State& state, int n, const std::vector<int>& qubits) {
  std::vector<linalg::cplx> plus(std::size_t{1} << n);  // H on qubit 0
  plus[0] = plus[1] = linalg::cplx{1.0 / std::sqrt(2.0), 0.0};
  sim::DensityMatrix dm(n, plus);
  const noise::Channel ch = noise::depolarizing(0.01, 2);
  std::vector<linalg::KernelPlan> plans;
  for (const linalg::Matrix& k : ch.kraus())
    plans.push_back(linalg::plan_kernel(k, qubits, dm.rho().rows()));
  for (auto _ : state) {
    dm.apply_kraus(ch.kraus(), plans, nullptr, qubits);
    benchmark::DoNotOptimize(dm.rho().data());
    benchmark::ClobberMemory();
  }
}

void BM_DensityMatrixDepolarizing(benchmark::State& state) {
  time_depolarizing(state, static_cast<int>(state.range(0)), {0, 1});
}
BENCHMARK(BM_DensityMatrixDepolarizing)->Arg(3)->Arg(5);

/// The same channel on the top and the bottom qubit, out to 8 qubits, where
/// rho's 2^16 entries reach the threaded passes. Twelve of its sixteen Kraus
/// terms are permutation-phase products.
void BM_DensityMatrixDepolarizing2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  time_depolarizing(state, n, {n - 1, 0});
}
BENCHMARK(BM_DensityMatrixDepolarizing2q)->Arg(3)->Arg(5)->Arg(8);

void BM_TemplateUnitary(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  synth::TemplateCircuit tpl = synth::TemplateCircuit::u3_layer(3);
  for (int b = 0; b < blocks; ++b) tpl.add_qsearch_block(b % 2, (b % 2) + 1);
  common::Rng rng(1);
  std::vector<double> params(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : params) p = rng.uniform(-3, 3);
  linalg::Matrix out;
  for (auto _ : state) {
    tpl.unitary(params, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemplateUnitary)->Arg(2)->Arg(6);

void BM_HsCostEval(benchmark::State& state) {
  common::Rng rng(2);
  synth::TemplateCircuit tpl = synth::TemplateCircuit::u3_layer(3);
  for (int b = 0; b < 4; ++b) tpl.add_qsearch_block(b % 2, (b % 2) + 1);
  const synth::HsCost cost(tpl, linalg::random_unitary(8, rng));
  std::vector<double> params(static_cast<std::size_t>(tpl.num_params()), 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost(params));
  }
}
BENCHMARK(BM_HsCostEval);

void BM_Gemm(benchmark::State& state) {
  common::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = linalg::random_unitary(dim, rng);
  const linalg::Matrix b = linalg::random_unitary(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize((a * b).data());
  }
}
BENCHMARK(BM_Gemm)->Arg(8)->Arg(32);

void BM_Expm(benchmark::State& state) {
  common::Rng rng(4);
  const auto dim = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix h = linalg::random_hermitian(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm_hermitian_propagator(h, 0.15).data());
  }
}
BENCHMARK(BM_Expm)->Arg(8)->Arg(16);

void BM_QFactorSweep(benchmark::State& state) {
  common::Rng rng(5);
  const linalg::Matrix target = linalg::random_unitary(8, rng);
  ir::QuantumCircuit structure(3);
  for (int b = 0; b < 6; ++b) {
    structure.cx(b % 2, (b % 2) + 1);
    structure.u3(0.2, 0.1, -0.1, b % 2);
    structure.u3(0.3, -0.2, 0.2, (b % 2) + 1);
  }
  synth::QFactorOptions opts;
  opts.max_sweeps = 1;
  for (auto _ : state) {
    synth::clear_synth_cache();  // measure the sweep, not a memoized lookup
    benchmark::DoNotOptimize(synth::qfactor_optimize(structure, target, opts).sweeps);
  }
}
BENCHMARK(BM_QFactorSweep);

void BM_TrajectoryShots(benchmark::State& state) {
  const auto device = common::driver::device("ourense");
  const auto model = noise::simulator_noise_model(device);
  ir::QuantumCircuit qc(3);
  qc.u3(0.7, 0.1, 0.2, 0).cx(0, 1).cx(1, 2).u3(0.4, -0.3, 0.2, 2);
  for (auto _ : state) {
    const auto compiled = sim::compile_noisy_circuit(qc, model);
    benchmark::DoNotOptimize(sim::trajectory_counts_streamed(compiled, 0, 64, 3).size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrajectoryShots);

// One hardware-mode trajectory run of a tfim_hw-shaped program (3-qubit TFIM
// at timestep 10, Manhattan, level-3 routing) at range(0) shots, through the
// engine. Iterations after the first hit the engine caches, so this times
// the shot trees of a run. The engine owns one worker: the figure is the
// run's work, which a busy pool pays whatever its size.
void BM_TrajectoryRun(benchmark::State& state) {
  algos::TfimModel model;
  exec::RunRequest request;
  request.circuit = model.circuit_up_to(10);
  request.config = exec::ExecutionConfig::hardware(noise::device_by_name("manhattan"));
  request.config.shots = static_cast<std::size_t>(state.range(0));
  request.config.seed = 3;
  exec::ExecutionEngine engine(exec::EngineOptions{1});
  for (auto _ : state) {
    const exec::RunResult result = engine.run(request);
    benchmark::DoNotOptimize(result.probabilities.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrajectoryRun)->Arg(128)->Arg(1024)->Arg(8192);

// ---- generic path vs specialized kernels -----------------------------------
//
// Same operator, same state width, two code paths. Sibling pairs share the
// `Kernel`/`Generic` prefix so speedups fall out of BENCH_kernels.json by
// dividing the two ns_per_amp counters.

std::vector<linalg::cplx> bench_state(int n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<linalg::cplx> amps(std::size_t{1} << n);
  for (auto& a : amps) a = linalg::cplx{rng.normal(), rng.normal()};
  double norm2 = 0.0;
  for (const auto& a : amps) norm2 += std::norm(a);
  for (auto& a : amps) a /= std::sqrt(norm2);
  return amps;
}

linalg::Matrix cx_matrix() {
  linalg::Matrix m(4, 4);  // control = sub-bit 0: swaps |01> and |11>
  m(0, 0) = m(2, 2) = m(3, 1) = m(1, 3) = linalg::cplx{1.0, 0.0};
  return m;
}

linalg::Matrix s_matrix() {
  linalg::Matrix m(2, 2);  // diag(1, i)
  m(0, 0) = linalg::cplx{1.0, 0.0};
  m(1, 1) = linalg::cplx{0.0, 1.0};
  return m;
}

void set_amp_rate(benchmark::State& state, int n) {
  const double amps = static_cast<double>(state.iterations()) *
                      static_cast<double>(std::size_t{1} << n);
  state.counters["ns_per_amp"] = benchmark::Counter(
      amps * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_GenericCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 71);
  const linalg::Matrix cx = cx_matrix();
  for (auto _ : state) {
    linalg::apply_gate_inplace(amps, cx, {0, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_GenericCx)->Arg(12)->Arg(14)->Arg(16);

void BM_KernelCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 71);
  const linalg::Matrix cx = cx_matrix();
  const std::vector<int> qubits = {0, n - 1};
  const linalg::BoundKernel bound = linalg::bind_kernel(
      linalg::plan_kernel(cx, qubits, amps.size()), cx, qubits);
  for (auto _ : state) {
    linalg::apply_bound(amps, bound);
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_KernelCx)->Arg(12)->Arg(14)->Arg(16);

void BM_Generic1q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 72);
  common::Rng rng(73);
  const linalg::Matrix u = linalg::random_unitary(2, rng);
  for (auto _ : state) {
    linalg::apply_gate_inplace(amps, u, {n / 2});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Generic1q)->Arg(12)->Arg(14)->Arg(16);

void BM_Kernel1q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 72);
  common::Rng rng(73);
  const linalg::Matrix u = linalg::random_unitary(2, rng);
  for (auto _ : state) {
    linalg::apply_operator(amps, u, {n / 2});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Kernel1q)->Arg(12)->Arg(14)->Arg(16);

void BM_GenericDiag1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 74);
  const linalg::Matrix z = s_matrix();
  for (auto _ : state) {
    linalg::apply_gate_inplace(amps, z, {n / 2});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_GenericDiag1)->Arg(12)->Arg(14);

void BM_KernelDiag1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 74);
  const linalg::Matrix z = s_matrix();
  const std::vector<int> qubits = {n / 2};
  const linalg::BoundKernel bound = linalg::bind_kernel(
      linalg::plan_kernel(z, qubits, amps.size()), z, qubits);
  for (auto _ : state) {
    linalg::apply_bound(amps, bound);
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_KernelDiag1)->Arg(12)->Arg(14);

void BM_Generic2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 75);
  common::Rng rng(76);
  const linalg::Matrix u = linalg::random_unitary(4, rng);
  for (auto _ : state) {
    linalg::apply_gate_inplace(amps, u, {1, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Generic2q)->Arg(12)->Arg(14);

void BM_Kernel2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 75);
  common::Rng rng(76);
  const linalg::Matrix u = linalg::random_unitary(4, rng);
  for (auto _ : state) {
    linalg::apply_operator(amps, u, {1, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Kernel2q)->Arg(12)->Arg(14);

// k=3/4 dense blocks: the shapes the k<=4 compile-time fusion produces.

void BM_Generic3q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 77);
  common::Rng rng(78);
  const linalg::Matrix u = linalg::random_unitary(8, rng);
  for (auto _ : state) {
    linalg::apply_gate_inplace(amps, u, {1, n / 2, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Generic3q)->Arg(12)->Arg(14);

void BM_Kernel3q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 77);
  common::Rng rng(78);
  const linalg::Matrix u = linalg::random_unitary(8, rng);
  for (auto _ : state) {
    linalg::apply_operator(amps, u, {1, n / 2, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Kernel3q)->Arg(12)->Arg(14);

void BM_Generic4q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 79);
  common::Rng rng(80);
  const linalg::Matrix u = linalg::random_unitary(16, rng);
  for (auto _ : state) {
    linalg::apply_gate_inplace(amps, u, {1, 2, n / 2, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Generic4q)->Arg(12)->Arg(14);

void BM_Kernel4q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto amps = bench_state(n, 79);
  common::Rng rng(80);
  const linalg::Matrix u = linalg::random_unitary(16, rng);
  for (auto _ : state) {
    linalg::apply_operator(amps, u, {1, 2, n / 2, n - 1});
    benchmark::DoNotOptimize(amps.data());
  }
  set_amp_rate(state, n);
}
BENCHMARK(BM_Kernel4q)->Arg(12)->Arg(14);

// Density-matrix conjugation U rho U† on an n-qubit rho (2^n x 2^n): the
// generic column-strided embed path vs the cache-blocked kernel path.
// ns_per_amp counts the 4^n matrix entries each conjugation touches.

void set_dm_rate(benchmark::State& state, int n) {
  const double entries = static_cast<double>(state.iterations()) *
                         static_cast<double>(std::size_t{1} << (2 * n));
  state.counters["ns_per_amp"] = benchmark::Counter(
      entries * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

linalg::Matrix bench_rho(int n, std::uint64_t seed) {
  const auto amps = bench_state(n, seed);
  const std::size_t dim = amps.size();
  linalg::Matrix rho(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c)
      rho(r, c) = amps[r] * std::conj(amps[c]);
  return rho;
}

void BM_GenericDmConjugation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  linalg::Matrix rho = bench_rho(n, 81);
  common::Rng rng(82);
  const linalg::Matrix u = linalg::random_unitary(4, rng);
  const linalg::Matrix u_adj = u.adjoint();
  for (auto _ : state) {
    linalg::left_apply_inplace(rho, u, {0, n - 1});
    linalg::right_apply_inplace(rho, u_adj, {0, n - 1});
    benchmark::DoNotOptimize(rho.data());
  }
  set_dm_rate(state, n);
}
BENCHMARK(BM_GenericDmConjugation)->Arg(6)->Arg(8);

void BM_KernelDmConjugation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  linalg::Matrix rho = bench_rho(n, 81);
  common::Rng rng(82);
  const linalg::Matrix u = linalg::random_unitary(4, rng);
  const linalg::Matrix u_adj = u.adjoint();
  for (auto _ : state) {
    linalg::left_apply(rho, u, {0, n - 1});
    linalg::right_apply(rho, u_adj, {0, n - 1});
    benchmark::DoNotOptimize(rho.data());
  }
  set_dm_rate(state, n);
}
BENCHMARK(BM_KernelDmConjugation)->Arg(6)->Arg(8);

}  // namespace

QAPPROX_BENCH_MAIN("BENCH_kernels.json")
