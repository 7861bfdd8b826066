// Ablation: randomized compiling (Pauli twirling) vs the hardware-mode
// coherent errors — the second half of the paper's mitigation-interplay
// question. Twirling converts the coherent CX over-rotation into stochastic
// Pauli noise; does the approximate-circuit advantage survive, and does
// twirling help the deep reference more than the shallow approximations?
#include <cmath>
#include <cstdio>

#include "algos/tfim.hpp"
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "noise/catalog.hpp"
#include "sim/observables.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/twirling.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "ablation_twirling");
  bench::print_banner("Ablation", "Pauli twirling vs hardware coherent errors");

  algos::TfimModel model;
  const int step = ctx.fast ? 5 : 10;
  const ir::QuantumCircuit reference = model.circuit_up_to(step);

  approx::GeneratorConfig gen = approx::tfim_generator_preset(3);
  gen.qsearch.max_nodes = ctx.fast ? 8 : 16;
  const noise::CouplingMap line = noise::CouplingMap::line(3);
  const auto circuits = approx::generate_from_reference(reference, gen, &line);
  const auto& pick = circuits[approx::minimal_hs_index(circuits)];

  const auto device = common::driver::device("manhattan");
  approx::ExecutionConfig hw = approx::ExecutionConfig::hardware(device);
  hw.shots = ctx.shots;
  approx::ExecutionConfig ideal_cfg = hw;
  ideal_cfg.ideal = true;
  const double ideal_mag = sim::average_z_magnetization(
      approx::execute_distribution(reference, ideal_cfg));

  common::Rng rng(77);
  auto run_mag = [&](const ir::QuantumCircuit& qc, bool twirl) {
    if (!twirl)
      return sim::average_z_magnetization(approx::execute_distribution(qc, hw));
    // Twirl in the logical {CX,U3} basis, execute each instance end to end.
    const ir::QuantumCircuit basis = transpile::transpile_all_to_all(qc, 1);
    const auto averaged = transpile::twirled_average(
        basis, ctx.fast ? 4 : 8, rng,
        [&](const ir::QuantumCircuit& inst) {
          return approx::execute_distribution(inst, hw);
        });
    return sim::average_z_magnetization(averaged);
  };

  common::Table table({"circuit", "raw_error", "twirled_error"});
  double errs[2][2];  // [circuit][twirled]
  const ir::QuantumCircuit* targets[2] = {&reference, &pick.circuit};
  const char* labels[2] = {"reference (deep)", "minimal-HS approximation"};
  for (int c = 0; c < 2; ++c) {
    for (int t = 0; t < 2; ++t)
      errs[c][t] = std::abs(run_mag(*targets[c], t == 1) - ideal_mag);
    table.add_row({labels[c], common::format_double(errs[c][0], 4),
                   common::format_double(errs[c][1], 4)});
  }
  bench::emit_table(ctx, "ablation_twirling", table);

  bench::shape_check("approximation still beats the reference after twirling",
                     errs[1][1] < errs[0][1], errs[1][1], errs[0][1]);
  std::printf("(randomized compiling randomizes coherent CX errors; the depth\n"
              " asymmetry that favours approximate circuits is untouched)\n");
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
