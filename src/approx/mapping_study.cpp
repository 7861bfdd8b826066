#include "approx/mapping_study.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transpile/decompose.hpp"

namespace qc::approx {

std::vector<MappingCandidate> enumerate_mappings(const ir::QuantumCircuit& circuit,
                                                 const noise::DeviceProperties& device) {
  // Manual placements per figure: best, two middles and worst.
  constexpr std::size_t kNumManual = 4;
  const ir::QuantumCircuit basis = transpile::decompose_to_cx_u3(circuit);
  const auto subsets = device.coupling.connected_subsets(basis.num_qubits());
  QC_CHECK(!subsets.empty());

  // Cheapest permutation per subset: one candidate region each, like the
  // paper's circled regions.
  std::vector<MappingCandidate> regions;
  for (const auto& subset : subsets) {
    std::vector<int> perm = subset;
    std::sort(perm.begin(), perm.end());
    MappingCandidate best;
    bool first = true;
    do {
      const double cost = transpile::layout_cost(basis, device, perm);
      if (first || cost < best.cost) {
        best.layout = perm;
        best.cost = cost;
        first = false;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    regions.push_back(std::move(best));
  }
  std::sort(regions.begin(), regions.end(),
            [](const MappingCandidate& a, const MappingCandidate& b) {
              return a.cost < b.cost;
            });

  std::vector<MappingCandidate> out;
  const std::size_t take = std::min(kNumManual, regions.size());
  for (std::size_t i = 0; i < take; ++i) {
    // Evenly spaced through the ranking: index 0 = best, last = worst.
    const std::size_t idx = take == 1 ? 0 : i * (regions.size() - 1) / (take - 1);
    MappingCandidate c = regions[idx];
    c.label = i == 0 ? "best" : (i + 1 == take ? "worst" : "mid" + std::to_string(i));
    out.push_back(std::move(c));
  }
  out.push_back(MappingCandidate{"auto", {}, 0.0});
  return out;
}

common::Table device_readout_report(const noise::DeviceProperties& device) {
  common::Table table({"qubit", "readout_err", "t1_us", "t2_us", "sq_err"});
  for (int q = 0; q < device.num_qubits(); ++q) {
    table.add_row({std::to_string(q), common::format_double(device.readout[q].average(), 5),
                   common::format_double(device.t1[q] / 1000.0, 2),
                   common::format_double(device.t2[q] / 1000.0, 2),
                   common::format_double(device.sq_error[q], 6)});
  }
  return table;
}

common::Table device_cx_report(const noise::DeviceProperties& device) {
  common::Table table({"edge", "cx_err", "cx_duration_ns"});
  for (std::size_t e = 0; e < device.coupling.edges().size(); ++e) {
    const auto [a, b] = device.coupling.edges()[e];
    table.add_row({std::to_string(a) + "-" + std::to_string(b),
                   common::format_double(device.cx_error[e], 6),
                   common::format_double(device.cx_duration[e], 1)});
  }
  return table;
}

}  // namespace qc::approx
