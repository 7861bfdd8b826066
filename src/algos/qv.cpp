#include "algos/qv.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "exec/engine.hpp"
#include "linalg/factories.hpp"
#include "noise/noise_model.hpp"
#include "sim/compiled.hpp"
#include "transpile/euler.hpp"
#include "transpile/pipeline.hpp"

namespace qc::algos {

ir::QuantumCircuit qv_model_circuit(int width, common::Rng& rng) {
  QC_CHECK(width >= 2 && width <= 10);
  ir::QuantumCircuit qc(width, "qv" + std::to_string(width));

  std::vector<int> perm(static_cast<std::size_t>(width));
  std::iota(perm.begin(), perm.end(), 0);

  for (int layer = 0; layer < width; ++layer) {
    // Fisher-Yates with the study RNG: a uniform random pairing.
    for (std::size_t i = perm.size(); i-- > 1;) {
      const std::size_t j = rng.uniform_int(i + 1);
      std::swap(perm[i], perm[j]);
    }
    for (int pair = 0; pair + 1 < width; pair += 2) {
      const int a = perm[pair];
      const int b = perm[pair + 1];
      // Random SU(4) block in the 3-CX KAK form: random U3 layers around
      // three CXs express any two-qubit unitary; randomizing the angles
      // gives the scrambling ensemble QV model circuits need, already in
      // the hardware basis.
      auto random_u3 = [&](int q) {
        qc.u3(rng.uniform(0, 3.141592653589793), rng.uniform(-3.14159, 3.14159),
              rng.uniform(-3.14159, 3.14159), q);
      };
      random_u3(a);
      random_u3(b);
      qc.cx(a, b);
      random_u3(a);
      random_u3(b);
      qc.cx(a, b);
      random_u3(a);
      random_u3(b);
      qc.cx(a, b);
      random_u3(a);
      random_u3(b);
    }
  }
  return qc;
}

std::vector<std::uint64_t> qv_heavy_set(const std::vector<double>& ideal_probs) {
  std::vector<double> sorted = ideal_probs;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double median =
      n % 2 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  std::vector<std::uint64_t> heavy;
  for (std::size_t i = 0; i < ideal_probs.size(); ++i)
    if (ideal_probs[i] > median) heavy.push_back(i);
  return heavy;
}

double heavy_output_probability(const std::vector<double>& ideal,
                                const std::vector<double>& measured) {
  QC_CHECK(ideal.size() == measured.size());
  double hop = 0.0;
  for (std::uint64_t idx : qv_heavy_set(ideal)) hop += measured[idx];
  return hop;
}

QvResult measure_quantum_volume(const noise::DeviceProperties& device,
                                const QvOptions& options) {
  QC_CHECK(options.max_width >= 2);
  QC_CHECK(options.num_circuits >= 1);

  QvResult result;
  common::Rng rng(options.seed);
  bool chain_alive = true;

  exec::ExecutionConfig exec_cfg;
  exec_cfg.device = device;
  if (options.hardware_mode) exec_cfg.noise_options = noise::NoiseModelOptions::hardware();
  exec_cfg.optimization_level = 3;  // DM engine: exact, so the seed is moot

  for (int width = 2; width <= std::min(options.max_width, device.num_qubits());
       ++width) {
    // One engine batch per width: the model circuits transpile and simulate
    // concurrently, and same-subset noise models come from the engine cache.
    std::vector<std::vector<double>> ideals;
    std::vector<exec::RunRequest> batch;
    ideals.reserve(static_cast<std::size_t>(options.num_circuits));
    batch.reserve(static_cast<std::size_t>(options.num_circuits));
    for (int c = 0; c < options.num_circuits; ++c) {
      common::Rng circuit_rng = rng.split((width << 10) + c);
      ir::QuantumCircuit model = qv_model_circuit(width, circuit_rng);
      ideals.push_back(sim::ideal_probabilities(model));
      batch.push_back({std::move(model), exec_cfg});
    }
    const auto noisy = exec::ExecutionEngine::global().run_batch(batch);

    double hop_sum = 0.0;
    for (int c = 0; c < options.num_circuits; ++c)
      hop_sum += heavy_output_probability(ideals[c], noisy[c].probabilities);
    QvWidthResult wr;
    wr.width = width;
    wr.mean_heavy_probability = hop_sum / options.num_circuits;
    wr.pass = wr.mean_heavy_probability > options.pass_threshold;
    if (wr.pass && chain_alive) {
      result.log2_qv = width;
    } else {
      chain_alive = false;
    }
    result.widths.push_back(wr);
  }
  return result;
}

}  // namespace qc::algos
