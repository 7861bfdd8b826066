#include "noise/catalog.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace qc::noise {

namespace {

struct CatalogEntry {
  const char* name;
  double avg_cx_error;        // Table 1
  double avg_readout_error;   // typical for the machine generation
  double avg_t1_us;
  std::uint64_t seed;
  CouplingMap (*layout)();
};

const CatalogEntry kEntries[] = {
    {"manhattan", 0.01578, 0.025, 60.0, 0x4d414e48ULL, &CouplingMap::hummingbird_65},
    {"toronto", 0.01377, 0.030, 80.0, 0x544f524fULL, &CouplingMap::falcon_27},
    {"santiago", 0.01131, 0.015, 90.0, 0x53414e54ULL,
     [] { return CouplingMap::line(5); }},
    {"rome", 0.02965, 0.022, 55.0, 0x524f4d45ULL, [] { return CouplingMap::line(5); }},
    {"ourense", 0.00767, 0.018, 100.0, 0x4f555245ULL, &CouplingMap::ourense_t},
};

/// Log-normal sample with the given linear-space mean and log-space sigma.
double lognormal(common::Rng& rng, double mean, double sigma) {
  // exp(N(mu, sigma)) has mean exp(mu + sigma^2/2).
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  return std::exp(mu + sigma * rng.normal());
}

DeviceProperties build(const CatalogEntry& entry) {
  common::Rng rng(entry.seed);
  DeviceProperties d{entry.name, entry.layout(), {}, {}, {}, {}, {}, {}, 35.0};
  const int n = d.coupling.num_qubits();

  for (int q = 0; q < n; ++q) {
    const double t1 = lognormal(rng, entry.avg_t1_us * 1000.0, 0.25);  // ns
    double t2 = lognormal(rng, 0.8 * entry.avg_t1_us * 1000.0, 0.35);
    t2 = std::min(t2, 2.0 * t1);
    d.t1.push_back(t1);
    d.t2.push_back(t2);
    d.sq_error.push_back(lognormal(rng, entry.avg_cx_error / 20.0, 0.3));
    const double ro = lognormal(rng, entry.avg_readout_error, 0.4);
    // Readout is asymmetric on real devices: |1> decays during measurement.
    d.readout.push_back(ReadoutError{.p_meas1_given0 = 0.7 * ro,
                                     .p_meas0_given1 = 1.3 * ro});
  }

  double sum = 0.0;
  for (std::size_t e = 0; e < d.coupling.num_edges(); ++e) {
    const double err = lognormal(rng, entry.avg_cx_error, 0.35);
    d.cx_error.push_back(err);
    sum += err;
    d.cx_duration.push_back(rng.uniform(300.0, 520.0));
  }
  // Rescale so the average matches Table 1 exactly.
  const double scale =
      entry.avg_cx_error / (sum / static_cast<double>(d.cx_error.size()));
  for (double& e : d.cx_error) e *= scale;

  d.validate();
  return d;
}

}  // namespace

DeviceProperties device_by_name(const std::string& name) {
  const std::string lower = common::to_lower(name);
  for (const auto& e : kEntries)
    if (lower == e.name || lower == std::string("ibmq_") + e.name) return build(e);
  throw common::ContractError("unknown device: " + name);
}

std::vector<DeviceProperties> device_catalog() {
  std::vector<DeviceProperties> out;
  for (const auto& e : kEntries) out.push_back(build(e));
  return out;
}

NoiseModel simulator_noise_model(const DeviceProperties& device) {
  return NoiseModel::from_device(device, NoiseModelOptions{});
}

NoiseModel hardware_noise_model(const DeviceProperties& device) {
  return NoiseModel::from_device(device, NoiseModelOptions::hardware());
}

}  // namespace qc::noise
