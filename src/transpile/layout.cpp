#include "transpile/layout.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "noise/topology.hpp"

namespace qc::transpile {

namespace {

/// What the layout cost reads of a circuit and a device, apart from the
/// layout itself, built once so noise_aware_layout does not rebuild it for
/// every candidate.
struct CostInputs {
  /// Interaction weights: how many two-qubit gates each virtual pair has,
  /// in ascending pair order.
  std::vector<std::pair<std::pair<int, int>, int>> interactions;
  /// Device-average CX error, charged per hop of an uncoupled pair (unused,
  /// and 0, on a device without edges: no pair is coupled there, and the
  /// disconnected-placement check throws first).
  double average_cx_error = 0.0;
  int num_qubits = 0;
};

CostInputs cost_inputs(const ir::QuantumCircuit& circuit,
                       const noise::DeviceProperties& device) {
  std::map<std::pair<int, int>, int> w;
  for (const ir::Gate& g : circuit.gates()) {
    if (!ir::gate_is_unitary(g.kind) || g.qubits.size() != 2) continue;
    auto key = std::minmax(g.qubits[0], g.qubits[1]);
    ++w[{key.first, key.second}];
  }
  CostInputs in;
  in.interactions.assign(w.begin(), w.end());
  if (!device.cx_error.empty()) in.average_cx_error = device.average_cx_error();
  in.num_qubits = circuit.num_qubits();
  return in;
}

double cost_of(const CostInputs& in, const noise::DeviceProperties& device,
               const Layout& layout) {
  QC_CHECK(layout.size() == static_cast<std::size_t>(in.num_qubits));
  const auto& coupling = device.coupling;
  double cost = 0.0;
  for (const auto& [pair, count] : in.interactions) {
    const int pa = layout[pair.first];
    const int pb = layout[pair.second];
    if (coupling.are_coupled(pa, pb)) {
      cost += count * device.cx_error_for(pa, pb);
    } else {
      // Each missing hop costs a SWAP (3 CX) on the cheapest path; charge a
      // pessimistic estimate using the device-average error.
      const int dist = coupling.distance(pa, pb);
      QC_CHECK_MSG(dist > 0, "layout places interacting qubits in disconnected parts");
      cost += count * (3.0 * (dist - 1) + 1.0) * in.average_cx_error;
    }
  }
  // Readout error on every measured (i.e. every) virtual qubit.
  for (int v = 0; v < in.num_qubits; ++v) cost += device.readout[layout[v]].average();
  return cost;
}

}  // namespace

Layout trivial_layout(const ir::QuantumCircuit& circuit,
                      const noise::DeviceProperties& device) {
  QC_CHECK_MSG(circuit.num_qubits() <= device.num_qubits(),
               "circuit wider than device");
  Layout layout(static_cast<std::size_t>(circuit.num_qubits()));
  for (int q = 0; q < circuit.num_qubits(); ++q) layout[q] = q;
  return layout;
}

double layout_cost(const ir::QuantumCircuit& circuit,
                   const noise::DeviceProperties& device, const Layout& layout) {
  return cost_of(cost_inputs(circuit, device), device, layout);
}

Layout noise_aware_layout(const ir::QuantumCircuit& circuit,
                          const noise::DeviceProperties& device,
                          std::size_t max_candidates) {
  const int n = circuit.num_qubits();
  QC_CHECK_MSG(n <= device.num_qubits(), "circuit wider than device");
  QC_CHECK_MSG(n <= 6, "noise_aware_layout enumerates subsets up to 6 qubits");

  const auto subsets = device.coupling.connected_subsets(n);
  QC_CHECK_MSG(!subsets.empty(), "device has no connected subset of the needed size");

  const CostInputs inputs = cost_inputs(circuit, device);
  Layout best;
  double best_cost = 0.0;
  std::size_t tried = 0;
  for (const auto& subset : subsets) {
    // Permutations of the subset are candidate layouts.
    std::vector<int> perm = subset;
    std::sort(perm.begin(), perm.end());
    do {
      if (tried++ >= max_candidates) break;
      const double cost = cost_of(inputs, device, perm);
      if (best.empty() || cost < best_cost) {
        best = perm;
        best_cost = cost;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    if (tried >= max_candidates) break;
  }
  QC_CHECK(!best.empty());
  return best;
}

}  // namespace qc::transpile
