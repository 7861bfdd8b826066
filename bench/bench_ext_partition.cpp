// Extension (paper §6.5): partitioned approximate synthesis — "it may be
// possible to create a large circuit out of many small circuits".
//
// Takes wide TFIM circuits (5-6 qubits, beyond the whole-unitary search
// budget), compresses them block-by-block under a per-block HS budget, and
// measures the CNOT savings and the end-to-end output fidelity under noise.
#include <cmath>
#include <cstdio>

#include "algos/tfim.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "sim/observables.hpp"
#include "synth/partition.hpp"
#include "transpile/decompose.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "ext_partition");
  bench::print_banner("Extension", "Partitioned approximate synthesis at 5-6 qubits");

  common::Table table({"qubits", "steps", "cx_before", "cx_after", "blocks_rewritten",
                       "sum_block_hs", "noisy_err_before", "noisy_err_after",
                       "time_s"});

  const auto device = common::driver::device("manhattan");
  bool all_shrunk = true;
  double err_before_sum = 0.0, err_after_sum = 0.0;

  for (int qubits : {5, 6}) {
    algos::TfimModel model;
    model.num_qubits = qubits;
    // Small-angle steps: exactly the regime where blocks compress well.
    model.dt = 0.05;
    const int steps = ctx.fast ? 4 : 8;
    const ir::QuantumCircuit circuit =
        transpile::decompose_to_cx_u3(model.circuit_up_to(steps));

    synth::PartitionedSynthesisOptions opts;
    opts.block_qubits = 3;
    opts.block_hs_budget = 0.05;
    opts.qsearch.max_nodes = ctx.fast ? 10 : 24;
    opts.qsearch.max_cnots = 4;
    opts.qsearch.optimizer.max_iterations = 60;

    common::Stopwatch sw;
    const auto result = synth::resynthesize_partitioned(circuit, opts);
    const double seconds = sw.seconds();
    all_shrunk = all_shrunk && result.cnots_after < result.cnots_before;

    // Output quality under the simulator noise model (ideal = noiseless
    // original circuit).
    const double ideal_mag =
        sim::average_z_magnetization(sim::ideal_probabilities(circuit));
    approx::ExecutionConfig exec = approx::ExecutionConfig::simulator(device);
    const double before = std::abs(
        sim::average_z_magnetization(approx::execute_distribution(circuit, exec)) -
        ideal_mag);
    const double after =
        std::abs(sim::average_z_magnetization(
                     approx::execute_distribution(result.circuit, exec)) -
                 ideal_mag);
    err_before_sum += before;
    err_after_sum += after;

    table.add_row({std::to_string(qubits), std::to_string(steps),
                   std::to_string(result.cnots_before),
                   std::to_string(result.cnots_after),
                   std::to_string(result.blocks_resynthesized),
                   common::format_double(result.accumulated_hs, 4),
                   common::format_double(before, 4), common::format_double(after, 4),
                   common::format_double(seconds, 1)});
  }
  bench::emit_table(ctx, "ext_partition", table);

  bench::shape_check("partitioned synthesis shrinks wide circuits",
                     all_shrunk, all_shrunk ? 1 : 0, 1);
  bench::shape_check("compressed circuits are closer to ideal under noise",
                     err_after_sum < err_before_sum, err_after_sum, err_before_sum);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
