// TFIM dynamics: the paper's flagship workload, end to end.
//
// Simulates the quench dynamics of a transverse-field Ising chain (the
// magnetization collapse), comparing four executions per timestep:
// noise-free Trotter reference, noisy Trotter reference, the minimal-HS
// approximate circuit, and the best approximate circuit.
//
//   ./tfim_dynamics [--qubits=3] [--steps=10] [--device=toronto]
#include <cstdio>

#include "common/driver.hpp"
#include "approx/tfim_study.hpp"
#include "common/cli.hpp"
#include "noise/catalog.hpp"

static int run(int argc, char** argv) {
  using namespace qc;
  common::CliArgs args(argc, argv);
  const int qubits = args.get_number("qubits", 3);
  const int steps = args.get_number("steps", 10);
  const std::string device_name = args.get("device", "toronto");

  approx::TfimStudyConfig cfg;
  cfg.model.num_qubits = qubits;
  cfg.model.num_steps = 21;
  for (int s = 1; s <= steps && s <= 21; ++s) cfg.steps.push_back(s);
  cfg.generator = approx::tfim_generator_preset(qubits);
  cfg.execution =
      approx::ExecutionConfig::simulator(common::driver::device(device_name));

  std::printf("TFIM chain: %d qubits, J=%.2f, h ramp to %.2f, dt=%.2f, device %s\n\n",
              qubits, cfg.model.coupling_j, cfg.model.h_max, cfg.model.dt,
              device_name.c_str());
  std::printf("%4s  %10s  %10s  %12s  %12s  %s\n", "step", "ideal", "noisy-ref",
              "minimal-HS", "best-approx", "(ref CX -> best CX)");

  const approx::TfimStudyResult result = approx::run_tfim_study(cfg);
  for (const auto& ts : result.timesteps) {
    std::printf("%4d  %10.4f  %10.4f  %12.4f  %12.4f  (%zu -> %zu)\n", ts.step,
                ts.noise_free_reference, ts.noisy_reference,
                ts.scores[ts.minimal_hs].metric, ts.scores[ts.best_output].metric,
                ts.reference_cnots, ts.circuits[ts.best_output].cnot_count);
  }
  std::printf("\nmax precision gain of best approximation over the reference: %.1f%%\n",
              100.0 * result.max_precision_gain);
  return 0;
}

int main(int argc, char** argv) {
  return qc::common::run_main(argc, argv, run);
}
