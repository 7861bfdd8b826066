// Ablation: greedy shortest-path router vs SABRE-style lookahead router.
//
// Routing inserts the very CNOTs the whole study is trying to avoid, so
// router quality directly moves every hardware figure. Compares added SWAPs
// and end-to-end noisy fidelity for the routed reference workloads.
#include <cmath>
#include <cstdio>

#include "algos/grover.hpp"
#include "algos/mct.hpp"
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "exec/engine.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"
#include "sim/compiled.hpp"
#include "transpile/decompose.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  bench::BenchContext ctx(argc, argv, "ablation_routers");
  bench::print_banner("Ablation", "Greedy vs SABRE-style routing");

  struct Workload {
    const char* label;
    ir::QuantumCircuit circuit;
    const char* device;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"grover3 on ourense", algos::grover_circuit(3, 0b111),
                       "ourense"});
  workloads.push_back({"mct4 on santiago", algos::mct_gate_circuit(4), "santiago"});
  workloads.push_back({"mct5 on toronto", algos::mct_gate_circuit(5), "toronto"});

  common::Table table({"workload", "greedy_swaps", "greedy_cx", "sabre_swaps",
                       "sabre_cx", "tvd_greedy", "tvd_sabre"});
  std::size_t greedy_total = 0, sabre_total = 0;
  double tvd_greedy_total = 0, tvd_sabre_total = 0;

  for (const auto& w : workloads) {
    const auto device = common::driver::device(w.device);
    const auto reference =
        sim::ideal_probabilities(transpile::decompose_to_cx_u3(w.circuit));

    std::size_t swaps[2], cx[2];
    double tvd[2];
    for (int r = 0; r < 2; ++r) {
      // One engine run per router: the RunRecord carries the routed SWAP and
      // CX counts, so no separate transpile-for-counting pass is needed.
      exec::ExecutionConfig cfg = exec::ExecutionConfig::simulator(device);
      cfg.router = r == 0 ? transpile::TranspileOptions::Router::Greedy
                          : transpile::TranspileOptions::Router::Sabre;
      const auto res = exec::ExecutionEngine::global().run({w.circuit, cfg});
      swaps[r] = res.record.added_swaps;
      cx[r] = res.record.transpiled_cx;
      tvd[r] = metrics::total_variation(reference, res.probabilities);
    }
    table.add_row({w.label, std::to_string(swaps[0]), std::to_string(cx[0]),
                   std::to_string(swaps[1]), std::to_string(cx[1]),
                   common::format_double(tvd[0], 4), common::format_double(tvd[1], 4)});
    greedy_total += swaps[0];
    sabre_total += swaps[1];
    tvd_greedy_total += tvd[0];
    tvd_sabre_total += tvd[1];
  }
  bench::emit_table(ctx, "ablation_routers", table);

  bench::shape_check("lookahead routing inserts no more SWAPs overall",
                     sabre_total <= greedy_total, static_cast<double>(sabre_total),
                     static_cast<double>(greedy_total));
  bench::shape_check("fewer SWAPs translate into no worse noisy fidelity",
                     tvd_sabre_total <= tvd_greedy_total + 0.02, tvd_sabre_total,
                     tvd_greedy_total);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
