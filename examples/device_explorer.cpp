// Device explorer: inspect the calibration snapshots in the catalog and see
// how a circuit of your chosen depth fares on each device.
//
//   ./device_explorer [--cnots=20]
#include <cstdio>

#include "common/cli.hpp"
#include "exec/engine.hpp"
#include "ir/circuit.hpp"
#include "metrics/distribution.hpp"
#include "noise/catalog.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  common::CliArgs args(argc, argv);
  const int cnots = args.get_number("cnots", 20);

  // A CX ladder whose ideal output equals its input: any deviation is noise.
  // Barriers keep the transpiler from cancelling the adjacent CX pairs (the
  // same trick used on real hardware for noise-probing sequences).
  ir::QuantumCircuit probe(2, "cx_ladder");
  for (int i = 0; i < cnots; ++i) {
    probe.cx(0, 1);
    probe.barrier();
  }

  std::printf("probe: %d CNOTs back to back on qubits {0,1}\n\n", cnots);
  std::printf("%-10s %7s %7s %12s %12s %14s\n", "device", "qubits", "edges",
              "avg CX err", "avg RO err", "P(|00> kept)");

  for (const auto& device : noise::device_catalog()) {
    const exec::ExecutionConfig cfg = exec::ExecutionConfig::simulator(device);
    const auto res = exec::ExecutionEngine::global().run({probe, cfg});
    std::printf("%-10s %7d %7zu %12.5f %12.5f %14.4f\n", device.name.c_str(),
                device.num_qubits(), device.coupling.num_edges(),
                device.average_cx_error(), device.average_readout_error(),
                res.probabilities[0]);
  }
  std::printf("\nSurvival tracks the error of the *specific edge* hosting the probe\n"
              "(trivial layout -> physical qubits {0,1}), not just the device\n"
              "average — the reason the paper's mapping study (Figs 16-19) matters.\n");
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
