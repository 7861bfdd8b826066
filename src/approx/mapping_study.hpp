// Qubit-mapping sensitivity study (Figures 16-19).
//
// Enumerates connected physical placements for a circuit on a device and
// ranks them by calibrated cost (the Figure 16 "circles"), plus the Figure 16
// device reports. bench::run_toronto_mapping_figure runs the approximate-
// circuit scatter under each pinned mapping and the automatic one.
#pragma once

#include <string>

#include "approx/experiment.hpp"
#include "common/table.hpp"

namespace qc::approx {

struct MappingCandidate {
  std::string label;          // "best", "worst", "auto", ...
  transpile::Layout layout;   // empty for the automatic mapping
  double cost = 0.0;          // layout_cost; 0 for automatic
};

/// Ranks all connected placements of `circuit` on `device` by layout_cost
/// and returns the best and worst (plus evenly spaced middles up to
/// `num_manual`), followed by the automatic candidate.
std::vector<MappingCandidate> enumerate_mappings(const ir::QuantumCircuit& circuit,
                                                 const noise::DeviceProperties& device,
                                                 std::size_t num_manual = 4);

/// Figure 16: the device noise report (per-qubit readout error, per-edge CX
/// error) as printable tables.
common::Table device_readout_report(const noise::DeviceProperties& device);
common::Table device_cx_report(const noise::DeviceProperties& device);

}  // namespace qc::approx
