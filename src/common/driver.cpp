#include "common/driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
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
  QC_CHECK_MSG(false, "unknown execution mode '" + mode +
                          "' (expected simulator | hardware | ideal)");
  return exec::ExecutionConfig::simulator(dev);  // unreachable
}

std::uint64_t default_seed(std::uint64_t fallback) {
  const char* text = std::getenv("QAPPROX_SEED");
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "qapprox: ignoring malformed QAPPROX_SEED='%s'\n", text);
    return fallback;
  }
  return v;
}

DriverContext::DriverContext(int argc, char** argv, const std::string& id)
    : args(argc, argv) {
  init_runtime();
  if (args.has("version")) {
    std::printf("%s\n", obs::build_info_summary().c_str());
    std::exit(0);
  }
  fast = args.get_bool("fast", false);
  const int requested_shots = args.get_int("shots", static_cast<int>(shots));
  if (requested_shots < 1 || static_cast<std::size_t>(requested_shots) > kMaxShots)
    throw ContractError("--shots: " + std::to_string(requested_shots) + " is outside [1, " +
                        std::to_string(kMaxShots) + "]");
  shots = static_cast<std::size_t>(requested_shots);
  seed = args.get_seed("seed", default_seed(11));
  csv_path = args.get("csv", id + ".csv");
}

}  // namespace qc::common::driver
