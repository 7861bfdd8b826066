#include "noise/noise_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qc::noise {

namespace {

/// Over-rotation angle per sqrt(edge CX error), radians.
constexpr double kOverrotationScale = 0.5;
/// ZZ angle between a CX qubit and each idle spectator neighbour, radians.
constexpr double kCrosstalkAngle = 0.12;
/// Wall-clock per CX layer as a multiple of the CX duration.
constexpr double kIdleDurationFactor = 3.0;

}  // namespace

NoiseModelOptions NoiseModelOptions::hardware() {
  NoiseModelOptions options;
  options.coherent_cx_overrotation = true;
  options.zz_crosstalk = true;
  options.hardware_drift_scale = 4.5;
  options.hardware_readout_scale = 2.0;
  return options;
}

std::uint64_t NoiseModelOptions::fingerprint() const {
  using common::hash_combine;
  std::uint64_t h = 0x3c95b1e87d42f609ULL;
  const auto mix_bool = [&h](bool b) {
    h = hash_combine(h, static_cast<std::uint64_t>(b));
  };
  const auto mix_double = [&h](double v) {
    h = hash_combine(h, std::bit_cast<std::uint64_t>(v));
  };
  mix_bool(thermal_relaxation);
  mix_bool(readout);
  mix_bool(depolarizing);
  mix_bool(coherent_cx_overrotation);
  mix_bool(zz_crosstalk);
  mix_double(hardware_drift_scale);
  mix_double(hardware_readout_scale);
  mix_bool(idle_relaxation);
  mix_bool(uniform_cx_error.has_value());
  mix_double(uniform_cx_error.value_or(0.0));
  return h;
}

NoiseModel NoiseModel::ideal(int num_qubits) {
  QC_CHECK(num_qubits > 0);
  NoiseModel m;
  m.num_qubits_ = num_qubits;
  m.device_name_ = "ideal";
  m.options_.thermal_relaxation = false;
  m.options_.readout = false;
  m.options_.depolarizing = false;
  m.sq_error_.assign(static_cast<std::size_t>(num_qubits), 0.0);
  m.t1_.assign(static_cast<std::size_t>(num_qubits), 1e18);
  m.t2_.assign(static_cast<std::size_t>(num_qubits), 1e18);
  m.readout_.assign(static_cast<std::size_t>(num_qubits), ReadoutError{});
  m.neighbors_.assign(static_cast<std::size_t>(num_qubits), {});
  return m;
}

NoiseModel NoiseModel::from_device(const DeviceProperties& device,
                                   const NoiseModelOptions& options) {
  device.validate();
  NoiseModel m;
  m.num_qubits_ = device.num_qubits();
  m.device_name_ = device.name;
  m.options_ = options;
  m.sq_error_ = device.sq_error;
  m.t1_ = device.t1;
  m.t2_ = device.t2;
  m.sq_duration_ = device.sq_duration;
  for (std::size_t e = 0; e < device.coupling.edges().size(); ++e) {
    const auto& edge = device.coupling.edges()[e];
    m.cx_error_[edge] = device.cx_error[e];
    m.cx_duration_[edge] = device.cx_duration[e];
  }
  m.neighbors_.resize(static_cast<std::size_t>(m.num_qubits_));
  for (int q = 0; q < m.num_qubits_; ++q) m.neighbors_[q] = device.coupling.neighbors(q);
  if (options.readout) {
    m.readout_ = device.readout;
    if (options.hardware_readout_scale != 1.0) {
      for (auto& r : m.readout_) {
        r.p_meas1_given0 =
            std::min(0.45, r.p_meas1_given0 * options.hardware_readout_scale);
        r.p_meas0_given1 =
            std::min(0.45, r.p_meas0_given1 * options.hardware_readout_scale);
      }
    }
  } else {
    m.readout_.assign(static_cast<std::size_t>(m.num_qubits_), ReadoutError{});
  }
  m.has_device_ = true;
  return m;
}

double NoiseModel::cx_error(int a, int b) const {
  const double scale = options_.hardware_drift_scale;
  if (options_.uniform_cx_error) return *options_.uniform_cx_error * scale;
  if (a > b) std::swap(a, b);
  const auto it = cx_error_.find({a, b});
  // Pairs outside the coupling map (e.g. in all-to-all simulation studies)
  // fall back to the device-average behaviour of the worst edge touched.
  double base;
  if (it != cx_error_.end()) {
    base = it->second;
  } else if (!cx_error_.empty()) {
    double sum = 0.0;
    for (const auto& [k, v] : cx_error_) sum += v;
    base = sum / static_cast<double>(cx_error_.size());
  } else {
    base = 0.0;
  }
  return base * scale;
}

double NoiseModel::sq_error(int q) const {
  QC_CHECK(q >= 0 && q < num_qubits_);
  return sq_error_[q];
}

std::vector<NoiseOp> NoiseModel::ops_for_gate(const ir::Gate& gate) const {
  std::vector<NoiseOp> ops;
  if (!ir::gate_is_unitary(gate.kind)) return ops;
  for (int q : gate.qubits)
    QC_CHECK_MSG(q < num_qubits_, "gate qubit outside noise model register");

  if (gate.qubits.size() == 1) {
    const int q = gate.qubits[0];
    if (options_.depolarizing && sq_error_[q] > 0.0)
      ops.push_back({{q}, depolarizing(sq_error_[q], 1)});
    if (options_.thermal_relaxation && has_device_)
      ops.push_back({{q}, thermal_relaxation(t1_[q], t2_[q], sq_duration_)});
    return ops;
  }
  // A noise-free model attaches nothing, whatever the gate's width, so ideal
  // references compile untranspiled circuits (CCX, MCX) against it.
  if (gate.qubits.size() > 2 && is_ideal()) return ops;

  QC_CHECK_MSG(gate.qubits.size() == 2,
               "noise model requires circuits transpiled to 1-2 qubit basis gates");
  const int a = gate.qubits[0];
  const int b = gate.qubits[1];
  const double p = cx_error(a, b);

  if (options_.depolarizing && p > 0.0) ops.push_back({{a, b}, depolarizing(p, 2)});
  if (options_.coherent_cx_overrotation && p > 0.0) {
    const double theta = kOverrotationScale * std::sqrt(p);
    ops.push_back({{a, b}, zz_overrotation(theta)});
  }
  if (options_.thermal_relaxation && has_device_) {
    auto key = std::minmax(a, b);
    const auto it = cx_duration_.find({key.first, key.second});
    const double dur = it != cx_duration_.end() ? it->second : 400.0;
    ops.push_back({{a}, thermal_relaxation(t1_[a], t2_[a], dur)});
    ops.push_back({{b}, thermal_relaxation(t1_[b], t2_[b], dur)});
  }
  if (options_.idle_relaxation && has_device_) {
    auto key = std::minmax(a, b);
    const auto it = cx_duration_.find({key.first, key.second});
    const double layer = (it != cx_duration_.end() ? it->second : 400.0) *
                         kIdleDurationFactor;
    for (int q = 0; q < num_qubits_; ++q) {
      if (q == a || q == b) continue;
      ops.push_back({{q}, thermal_relaxation(t1_[q], t2_[q], layer)});
    }
  }
  if (options_.zz_crosstalk) {
    for (int gq : gate.qubits) {
      for (int spectator : neighbors_[gq]) {
        if (spectator == a || spectator == b) continue;
        ops.push_back({{gq, spectator}, zz_overrotation(kCrosstalkAngle)});
      }
    }
  }
  return ops;
}

bool NoiseModel::is_ideal() const {
  if (options_.depolarizing || options_.thermal_relaxation) {
    // Models constructed from devices always carry noise unless every knob
    // is off; the cheap conservative answer checks the flags and data.
    for (double e : sq_error_)
      if (options_.depolarizing && e > 0.0) return false;
    if (options_.depolarizing) {
      for (const auto& [k, v] : cx_error_)
        if (v > 0.0) return false;
      if (options_.uniform_cx_error && *options_.uniform_cx_error > 0.0) return false;
    }
    if (options_.thermal_relaxation && has_device_) return false;
  }
  for (const auto& r : readout_)
    if (r.average() > 0.0) return false;
  return !options_.coherent_cx_overrotation && !options_.zz_crosstalk;
}

}  // namespace qc::noise
