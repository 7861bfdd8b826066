// Figure 16: the Toronto device noise report — per-qubit readout error and
// per-edge CX error (the paper's heatmap), plus the four candidate mapping
// "circles" for the 4q Toffoli ranked by calibrated cost.
#include <cstdio>

#include "algos/mct.hpp"
#include "approx/mapping_study.hpp"
#include "bench_util.hpp"
#include "noise/catalog.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "fig16");
  bench::print_banner("Figure 16", "Toronto noise report and candidate mappings");

  const auto device = common::driver::device("toronto");
  std::printf("-- per-qubit calibration --\n%s",
              approx::device_readout_report(device).to_string().c_str());
  const common::Table cx = approx::device_cx_report(device);
  std::printf("-- per-edge CX calibration --\n%s", cx.to_string().c_str());
  bench::emit_table(ctx, "fig16", cx);

  const auto mappings =
      approx::enumerate_mappings(algos::mct_battery_circuit(4), device);
  std::printf("-- candidate mappings for the 4q Toffoli --\n");
  for (const auto& m : mappings) {
    std::printf("  %-6s cost=%.5f layout=[", m.label.c_str(), m.cost);
    for (std::size_t i = 0; i < m.layout.size(); ++i)
      std::printf("%s%d", i ? "," : "", m.layout[i]);
    std::printf("]%s\n", m.layout.empty() ? "(transpiler level 3)" : "");
  }
  bench::shape_check("best mapping has lower calibrated cost than worst",
                     mappings.front().cost < mappings[mappings.size() - 2].cost,
                     mappings.front().cost, mappings[mappings.size() - 2].cost);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
