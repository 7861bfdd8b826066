// Figure 5: probability of the correct result over CNOT count for the
// 3-qubit Grover search (target '111') under the Toronto noise model.
//
// Shape targets: a wide scatter straddling the reference line with the
// majority of approximate circuits above it (higher success probability).
#include <cstdio>

#include "algos/grover.hpp"
#include "bench_util.hpp"
#include "noise/catalog.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "fig05");
  bench::print_banner("Figure 5",
                      "3q Grover ('111'), Toronto noise model: P(correct) vs CNOTs");

  const ir::QuantumCircuit reference = algos::grover_circuit(3, 0b111);
  const auto circuits =
      [&] {
        const noise::CouplingMap line = noise::CouplingMap::line(3);
        return approx::generate_from_reference(
            reference, approx::grover_generator_preset(ctx.fast), &line);
      }();
  std::printf("harvested %zu approximate circuits\n", circuits.size());

  approx::ExecutionConfig exec =
      approx::ExecutionConfig::simulator(common::driver::device("toronto"));
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b111;
  const approx::ScatterStudy study =
      approx::run_scatter_study(reference, circuits, exec, metric);
  bench::emit_table(ctx, "fig05", bench::scatter_table(study, "p_correct"), 40);

  const double frac =
      approx::fraction_beating_reference(study.scores, study.reference_metric, true);
  std::printf("reference: %zu CNOTs, P(correct) = %.3f; %.0f%% of cloud above it\n",
              study.reference_cnots, study.reference_metric, 100 * frac);
  bench::shape_check("majority of approximations beat the reference", frac > 0.5,
                     frac, 0.5);
  const double best = study.scores[approx::best_by_max(study.scores)].metric;
  bench::shape_check("best approximation clearly beats reference",
                     best > study.reference_metric + 0.05, best,
                     study.reference_metric);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
