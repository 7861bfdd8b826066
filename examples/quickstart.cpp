// Quickstart: the whole library in ~80 lines.
//
// Build a circuit, get its unitary, synthesize approximate circuits with
// instrumented QSearch, run exact and approximate versions under a real
// device's noise model, and see the paper's core effect: the shorter
// approximation gives output closer to the ideal answer.
//
//   ./quickstart
#include <cstdio>

#include "common/driver.hpp"
#include "approx/experiment.hpp"
#include "approx/selection.hpp"
#include "approx/workflow.hpp"
#include "common/cli.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"

static int run(int, char**) {
  using namespace qc;

  // 1. A small circuit that is needlessly deep: a GHZ-like state prepared
  //    with a chain of redundant entangling layers.
  ir::QuantumCircuit circuit(3, "deep_ghz");
  circuit.h(0);
  for (int round = 0; round < 6; ++round) {
    circuit.cx(0, 1);
    circuit.cx(1, 2);
    circuit.rz(0.07, 2);
    circuit.cx(1, 2);
    circuit.cx(0, 1);
  }
  circuit.cx(0, 1);
  circuit.cx(1, 2);
  std::printf("reference circuit: %zu gates, %zu CNOTs\n", circuit.size(),
              circuit.count(ir::GateKind::CX));

  // 2. Ideal output distribution (what a perfect machine would return).
  const auto ideal_probs = sim::ideal_probabilities(circuit);

  // 3. Harvest approximate circuits from instrumented QSearch.
  approx::GeneratorConfig gen;
  gen.qsearch.max_nodes = 20;
  gen.qsearch.max_cnots = 4;
  gen.hs_threshold = 0.3;  // paper rule: never below 0.1
  const auto approximations = approx::generate_from_reference(circuit, gen);
  std::printf("harvested %zu approximate circuits (HS <= 0.3)\n",
              approximations.size());

  // 4. Execute the reference and the minimal-HS approximation on the
  //    Ourense noise model, through the cached ExecutionEngine. Each
  //    RunResult carries a RunRecord describing what actually ran.
  const auto device = common::driver::device("ourense");
  const approx::ExecutionConfig cfg = approx::ExecutionConfig::simulator(device);
  auto& engine = exec::ExecutionEngine::global();

  const exec::RunResult ref_run = engine.run({circuit, cfg});
  const std::size_t pick = approx::minimal_hs_index(approximations);
  const exec::RunResult approx_run = engine.run({approximations[pick].circuit, cfg});
  const auto& noisy_ref = ref_run.probabilities;
  const auto& noisy_approx = approx_run.probabilities;
  std::printf("run record: engine=%s, transpiled CX=%zu, depth=%zu, "
              "transpile cache %s, %.1f ms\n",
              ref_run.record.engine.c_str(), ref_run.record.transpiled_cx,
              ref_run.record.transpiled_depth,
              ref_run.record.transpile_cache_hit ? "hit" : "miss",
              ref_run.record.wall_ms);

  const double ref_tvd = metrics::total_variation(ideal_probs, noisy_ref);
  const double approx_tvd = metrics::total_variation(ideal_probs, noisy_approx);
  std::printf("\nreference under noise:      TVD from ideal = %.4f (%zu CNOTs)\n",
              ref_tvd, circuit.count(ir::GateKind::CX));
  std::printf("approximation under noise:  TVD from ideal = %.4f (%zu CNOTs, HS %.3g)\n",
              approx_tvd, approximations[pick].cnot_count,
              approximations[pick].hs_distance);

  if (approx_tvd < ref_tvd) {
    std::printf("\n=> the approximate circuit beats the exact one under noise —\n"
                "   the paper's core observation, in one run.\n");
  } else {
    std::printf("\n=> on this target the exact circuit held up; try a deeper one.\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
