// Catalog of the five IBM devices in the paper's Table 1.
//
// IBM's historical calibration dumps are not redistributable, so the catalog
// synthesizes per-qubit / per-edge values with the documented generative
// model (log-normal spread, deterministic per-device seed) and then rescales
// so each device's *average* CX error matches Table 1 exactly:
//
//   Manhattan  65 qubits  avg CX err .01578
//   Toronto    27 qubits  avg CX err .01377
//   Santiago    5 qubits  avg CX err .01131
//   Rome        5 qubits  avg CX err .02965
//   Ourense     5 qubits  avg CX err .00767
//
// The experiments depend on the averages, the topology, and the presence of
// realistic per-edge/per-qubit variation — all preserved.
#pragma once

#include <string>
#include <vector>

#include "noise/device.hpp"
#include "noise/noise_model.hpp"

namespace qc::noise {

/// Builds the calibration snapshot for one device; throws ContractError on
/// unknown names.
DeviceProperties device_by_name(const std::string& name);

/// All five Table 1 devices.
std::vector<DeviceProperties> device_catalog();

/// Simulator-style noise model (what the paper calls "<device> noise model").
NoiseModel simulator_noise_model(const DeviceProperties& device);

/// Hardware-mode noise model ("<device> physical machine"): the simulator
/// model plus coherent CX over-rotation and ZZ crosstalk, the error sources
/// calibration-derived models omit. See DESIGN.md, substitutions table.
NoiseModel hardware_noise_model(const DeviceProperties& device);

}  // namespace qc::noise
