// Synthesize an arbitrary unitary: QSearch vs QFast on the same target,
// with the instrumentation stream printed — the raw material of the paper's
// approximate-circuit clouds.
//
//   ./synthesize_unitary [--qubits=2] [--seed=7]
#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "ir/qasm.hpp"
#include "linalg/factories.hpp"
#include "synth/invariants.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  common::CliArgs args(argc, argv);
  const int qubits = args.get_number("qubits", 2);
  common::Rng rng(args.get_number<std::uint64_t>("seed", 7));
  const linalg::Matrix target =
      linalg::random_unitary(std::size_t{1} << qubits, rng);

  std::printf("target: Haar-random %d-qubit unitary\n", qubits);
  if (qubits == 2) {
    std::printf("analytic CNOT lower bound (Makhlin/SBM invariants): %d\n",
                synth::minimal_cx_count(target));
  }
  std::printf("\n");

  std::printf("-- QSearch (instrumented) --\n");
  synth::QSearchOptions qs;
  qs.max_nodes = 30;
  qs.max_cnots = qubits == 2 ? 3 : 8;
  qs.intermediate_callback = [](const synth::ApproxCircuit& c) {
    std::printf("  checked: %2zu CNOTs  HS %.5f\n", c.cnot_count, c.hs_distance);
  };
  common::Stopwatch sw;
  const auto qs_result = synth::qsearch_synthesize(target, qubits, qs);
  std::printf("best: %zu CNOTs at HS %.3g (%s, %d nodes, %.2fs)\n\n",
              qs_result.best.cnot_count, qs_result.best.hs_distance,
              qs_result.converged ? "converged" : "budget hit",
              qs_result.nodes_optimized, sw.seconds());

  std::printf("-- QFast (partial_solution_callback) --\n");
  synth::QFastOptions qf;
  qf.max_blocks = qubits == 2 ? 2 : 6;
  qf.optimizer.max_iterations = 80;
  qf.partial_solution_callback = [](const synth::ApproxCircuit& c) {
    std::printf("  partial: %2zu CNOTs  HS %.5f\n", c.cnot_count, c.hs_distance);
  };
  sw.reset();
  const auto qf_result = synth::qfast_synthesize(target, qubits, qf);
  std::printf("best: %zu CNOTs at HS %.3g (%s, %.2fs)\n\n",
              qf_result.best.cnot_count, qf_result.best.hs_distance,
              qf_result.converged ? "converged" : "budget hit", sw.seconds());

  std::printf("-- best circuit as OpenQASM 2.0 --\n%s",
              ir::to_qasm(qs_result.best.hs_distance <= qf_result.best.hs_distance
                              ? qs_result.best.circuit
                              : qf_result.best.circuit)
                  .c_str());
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
