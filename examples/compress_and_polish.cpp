// Compress-and-polish: the §6.5 toolchain on a wide circuit.
//
// Takes a 6-qubit TFIM evolution (too wide for whole-unitary search),
// compresses it with partitioned approximate synthesis, polishes every
// block result with QFactor sweeps, and compares noisy output quality
// before/after on a catalog device.
//
//   ./compress_and_polish [--qubits=6] [--steps=8] [--budget=0.05]
#include <cmath>
#include <cstdio>

#include "common/driver.hpp"
#include "algos/tfim.hpp"
#include "approx/experiment.hpp"
#include "common/cli.hpp"
#include "metrics/process.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "sim/observables.hpp"
#include "synth/partition.hpp"
#include "transpile/decompose.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  common::CliArgs args(argc, argv);
  const int qubits = args.get_number("qubits", 6);
  const int steps = args.get_number("steps", 8);

  algos::TfimModel model;
  model.num_qubits = qubits;
  model.dt = 0.05;
  const ir::QuantumCircuit circuit =
      transpile::decompose_to_cx_u3(model.circuit_up_to(steps));
  std::printf("input: %d-qubit TFIM, %d Trotter steps, %zu CNOTs\n", qubits, steps,
              circuit.count(ir::GateKind::CX));

  synth::PartitionedSynthesisOptions opts;
  opts.block_qubits = 3;
  opts.block_hs_budget = args.get_number("budget", 0.05);
  opts.qsearch.max_nodes = 24;
  opts.qsearch.max_cnots = 4;

  const auto result = synth::resynthesize_partitioned(circuit, opts);
  std::printf("compressed: %zu -> %zu CNOTs (%zu/%zu blocks rewritten, "
              "sum of block HS budgets spent: %.3f)\n",
              result.cnots_before, result.cnots_after, result.blocks_resynthesized,
              result.blocks_total, result.accumulated_hs);

  const auto device = common::driver::device("toronto");
  const approx::ExecutionConfig exec = approx::ExecutionConfig::simulator(device);
  const double ideal =
      sim::average_z_magnetization(sim::ideal_probabilities(circuit));
  const double before = sim::average_z_magnetization(
      approx::execute_distribution(circuit, exec));
  const double after = sim::average_z_magnetization(
      approx::execute_distribution(result.circuit, exec));

  std::printf("\nmagnetization: ideal %.4f | original under noise %.4f (err %.4f) | "
              "compressed under noise %.4f (err %.4f)\n",
              ideal, before, std::abs(before - ideal), after, std::abs(after - ideal));
  std::printf("=> %s\n", std::abs(after - ideal) < std::abs(before - ideal)
                             ? "the compressed approximation wins under noise"
                             : "no gain at this budget; raise --budget or steps");
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
