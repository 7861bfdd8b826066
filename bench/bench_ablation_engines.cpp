// Ablation: density-matrix vs trajectory noisy-simulation engines.
//
// DESIGN.md design decision: DM gives exact probabilities at n<=5 and is the
// default for "noise model" runs; trajectories add shot noise (hardware
// realism) at a cost. This bench quantifies convergence (TVD to the DM
// answer vs shot count) and wall time.
#include <cstdio>

#include "algos/tfim.hpp"
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/stopwatch.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "transpile/pipeline.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "ablation_engines");
  bench::print_banner("Ablation", "Density-matrix vs trajectory engines");

  algos::TfimModel model;
  const auto device = common::driver::device("ourense");
  const auto tr = transpile::transpile(model.circuit_up_to(6), device, {});
  const auto sub = tr.restricted_device(device);
  const auto nm = noise::NoiseModel::from_device(sub, {});

  common::Stopwatch sw;
  const auto exact =
      sim::density_matrix_probabilities(sim::compile_noisy_circuit(tr.circuit, nm));
  const double dm_ms = sw.millis();

  common::Table table({"engine", "shots", "tvd_vs_dm", "time_ms"});
  table.add_row({"density-matrix", "-", "0", common::format_double(dm_ms, 2)});
  for (std::size_t shots : {256u, 1024u, 4096u, 16384u}) {
    sw.reset();
    const auto sampled = metrics::counts_to_distribution(sim::trajectory_counts_streamed(
        sim::compile_noisy_circuit(tr.circuit, nm), 0, shots, 7));
    const double ms = sw.millis();
    table.add_row({"trajectory", std::to_string(shots),
                   common::format_double(metrics::total_variation(exact, sampled), 4),
                   common::format_double(ms, 2)});
  }
  bench::emit_table(ctx, "ablation_engines", table);

  // Convergence: TVD at 16384 shots must be well under TVD at 256.
  const double tvd_lo = std::atof(table.row(1)[2].c_str());
  const double tvd_hi = std::atof(table.row(4)[2].c_str());
  bench::shape_check("trajectory converges to the DM answer with shots",
                     tvd_hi < tvd_lo, tvd_hi, tvd_lo);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
