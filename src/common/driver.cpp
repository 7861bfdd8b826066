#include "common/driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/strings.hpp"
#include "noise/catalog.hpp"
#include "obs/obs.hpp"

namespace qc::common::driver {

void init_runtime() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::init_from_env();
    // Arm (or warn about) the env fault spec and the process deadline now so
    // configuration mistakes surface at startup, not mid-study.
    (void)faults::enabled();
    (void)Deadline::from_env();
  });
}

exec::ExecutionEngine& engine() {
  init_runtime();
  return exec::ExecutionEngine::global();
}

const noise::DeviceProperties& device(const std::string& name) {
  static std::mutex mutex;
  static std::map<std::string, noise::DeviceProperties> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, noise::device_by_name(name)).first;
  return it->second;
}

exec::ExecutionConfig execution_config(const std::string& device_name,
                                       const std::string& mode) {
  const noise::DeviceProperties& dev = device(device_name);
  if (mode == "simulator") return exec::ExecutionConfig::simulator(dev);
  if (mode == "hardware") return exec::ExecutionConfig::hardware(dev);
  if (mode == "ideal") return exec::ExecutionConfig::noise_free(dev);
  throw ContractError("unknown execution mode '" + mode +
                      "' (expected simulator | hardware | ideal)");
}

std::uint64_t default_seed(std::uint64_t fallback) {
  return env_number<std::uint64_t>("QAPPROX_SEED", fallback, 0,
                                   std::numeric_limits<std::uint64_t>::max());
}

DriverContext::DriverContext(int argc, char** argv, const std::string& id)
    : args(argc, argv) {
  init_runtime();
  if (args.has("version")) {
    std::printf("%s\n", obs::build_info_summary().c_str());
    std::exit(0);
  }
  fast = args.get_bool("fast", false);
  shots = args.get_number<std::size_t>("shots", shots, 1, kMaxShots);
  seed = args.get_number<std::uint64_t>("seed", default_seed(11));
  csv_path = args.get("csv", id + ".csv");
}

}  // namespace qc::common::driver
