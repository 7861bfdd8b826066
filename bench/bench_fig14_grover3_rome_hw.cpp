// Figure 14: 3q Grover on the Rome physical machine.
//
// Shape targets: many (not all) approximations beat the reference; only a
// minor bias toward shorter circuits; the level-3-routed reference on the
// 5q line topology is far deeper than its logical 24 CX (paper: >50 CNOTs,
// off the figure's x-axis).
#include <cstdio>

#include "algos/grover.hpp"
#include "bench_util.hpp"
#include "noise/catalog.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "fig14");
  bench::print_banner("Figure 14", "3q Grover ('111') on the Rome physical machine");

  const ir::QuantumCircuit reference = algos::grover_circuit(3, 0b111);
  const auto circuits =
      [&] {
        const noise::CouplingMap line = noise::CouplingMap::line(3);
        return approx::generate_from_reference(
            reference, approx::grover_generator_preset(ctx.fast), &line);
      }();
  std::printf("harvested %zu approximate circuits\n", circuits.size());

  approx::ExecutionConfig exec =
      approx::ExecutionConfig::hardware(common::driver::device("rome"));
  exec.shots = ctx.shots;
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b111;
  const approx::ScatterStudy study =
      approx::run_scatter_study(reference, circuits, exec, metric);
  bench::emit_table(ctx, "fig14", bench::scatter_table(study, "p_correct"), 40);

  const double frac =
      approx::fraction_beating_reference(study.scores, study.reference_metric, true);
  std::printf("reference after routing: %zu CNOTs, P(correct) %.3f; %.0f%% of the "
              "cloud above it\n",
              study.reference_cnots, study.reference_metric, 100 * frac);
  bench::shape_check("many approximations beat the reference", frac > 0.4, frac, 0.4);
  bench::shape_check("routed reference is much deeper than its logical 24 CX",
                     study.reference_cnots >= 24,
                     static_cast<double>(study.reference_cnots), 24);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
