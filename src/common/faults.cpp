#include "common/faults.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace qc::common::faults {
namespace {

constexpr std::size_t kNumSites = 4;

struct SiteConfig {
  bool armed = false;
  double probability = 0.0;
  double param = 0.0;
};

struct Config {
  std::array<SiteConfig, kNumSites> sites{};
  std::uint64_t seed = 0x4641554cULL;  // "FAUL"
  std::string spec;
};

// Armed flag is the only thing hot paths touch; the full config sits behind a
// mutex because install_spec (tests) can swap it at any time.
std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
Config g_config;

int site_index(const std::string& name) {
  if (name == "synth") return static_cast<int>(Site::SynthFail);
  if (name == "worker") return static_cast<int>(Site::WorkerThrow);
  if (name == "nan") return static_cast<int>(Site::StateNan);
  if (name == "slow") return static_cast<int>(Site::SlowTask);
  return -1;
}

template <typename T>
T parse_number(const std::string& text, T lo, T hi, const std::string& spec) {
  if (const std::optional<T> v = parse_decimal(text, lo, hi)) return *v;
  throw ContractError("fault spec \"" + spec + "\": \"" + text + "\" is not " +
                      decimal_rule(lo, hi));
}

Config parse_spec(const std::string& spec) {
  Config config;
  config.spec = spec;
  for (const std::string& raw : split(spec, ',')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      config.seed = parse_number<std::uint64_t>(
          entry.substr(5), 0, std::numeric_limits<std::uint64_t>::max(), spec);
      continue;
    }
    const std::vector<std::string> parts = split(entry, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      throw ContractError("fault spec \"" + spec + "\": entry \"" + entry +
                          "\" is not site:prob[:param]");
    }
    const int index = site_index(trim(parts[0]));
    if (index < 0) {
      throw ContractError("fault spec \"" + spec + "\": unknown site \"" +
                          trim(parts[0]) +
                          "\" (expected synth, worker, nan, or slow)");
    }
    const double prob = parse_number(parts[1], 0.0, 1.0, spec);
    SiteConfig& site = config.sites[static_cast<std::size_t>(index)];
    site.armed = prob > 0.0;
    site.probability = prob;
    site.param = parts.size() == 3 ? parse_number(parts[2], 0.0, kMaxPeriodMs, spec) : 0.0;
  }
  if (config.sites[static_cast<std::size_t>(Site::SlowTask)].armed &&
      config.sites[static_cast<std::size_t>(Site::SlowTask)].param <= 0.0) {
    config.sites[static_cast<std::size_t>(Site::SlowTask)].param = 10.0;
  }
  return config;
}

void install(Config config) {
  bool any = false;
  for (const SiteConfig& site : config.sites) any = any || site.armed;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_config = std::move(config);
  }
  g_enabled.store(any, std::memory_order_release);
}

void init_from_env_once() {
  static const bool done = [] {
    const char* spec = std::getenv("QAPPROX_FAULTS");
    if (spec == nullptr || *spec == '\0') return true;
    try {
      install(parse_spec(spec));
      QC_LOG_WARN("faults", "fault injection armed: QAPPROX_FAULTS=\"%s\"",
                  spec);
    } catch (const ContractError& e) {
      QC_LOG_WARN("faults", "ignoring malformed QAPPROX_FAULTS: %s", e.what());
    }
    return true;
  }();
  (void)done;
}

SiteConfig site_config(Site site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_config.sites[static_cast<std::size_t>(site)];
}

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::SynthFail: return "synth";
    case Site::WorkerThrow: return "worker";
    case Site::StateNan: return "nan";
    case Site::SlowTask: return "slow";
  }
  return "unknown";
}

bool enabled() {
  init_from_env_once();
  return g_enabled.load(std::memory_order_acquire);
}

bool fires(Site site, std::uint64_t stream) {
  if (!enabled()) return false;
  SiteConfig cfg;
  std::uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    cfg = g_config.sites[static_cast<std::size_t>(site)];
    seed = g_config.seed;
  }
  if (!cfg.armed) return false;
  // Pure function of (spec seed, site, stream): the same instance fires (or
  // not) regardless of thread count or execution order.
  std::uint64_t h = hash_combine(seed, static_cast<std::uint64_t>(site) + 1);
  h = hash_combine(h, stream);
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  if (u >= cfg.probability) return false;
  obs::counter(std::string("faults.") + site_name(site) + ".fired").add(1);
  return true;
}

double param(Site site) {
  if (!enabled()) return 0.0;
  return site_config(site).param;
}

void maybe_delay(std::uint64_t stream) {
  if (!enabled()) return;
  if (!fires(Site::SlowTask, stream)) return;
  const double ms = site_config(Site::SlowTask).param;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void install_spec(const std::string& spec) {
  init_from_env_once();
  if (spec.empty()) {
    install(Config{});
    return;
  }
  install(parse_spec(spec));
}

std::string active_spec() {
  if (!enabled()) {
    // Still report a spec whose sites are all zero-probability.
    init_from_env_once();
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_config.spec;
}

}  // namespace qc::common::faults
