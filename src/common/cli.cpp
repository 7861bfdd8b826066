#include "common/cli.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qc::common {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) continue;
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string v = to_lower(it->second);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

namespace {
std::atomic<bool> g_partial_results{false};
std::mutex g_partial_mutex;
std::string g_partial_what;  // guarded by g_partial_mutex
}  // namespace

void note_partial_results(const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(g_partial_mutex);
    if (g_partial_what.empty()) g_partial_what = what;
  }
  g_partial_results.store(true, std::memory_order_release);
}

bool partial_results_noted() {
  return g_partial_results.load(std::memory_order_acquire);
}

void reset_partial_results_note() {
  std::lock_guard<std::mutex> lock(g_partial_mutex);
  g_partial_what.clear();
  g_partial_results.store(false, std::memory_order_release);
}

int run_main(int argc, char** argv, int (*body)(int, char**)) noexcept {
  try {
    return body(argc, argv);
  } catch (const TimeoutError& e) {
    if (partial_results_noted()) {
      std::string what;
      {
        std::lock_guard<std::mutex> lock(g_partial_mutex);
        what = g_partial_what;
      }
      std::fprintf(stderr,
                   "qapprox timeout: %s — partial results were already emitted "
                   "(%s); exiting 0\n",
                   e.what(), what.c_str());
      return 0;
    }
    std::fprintf(stderr, "qapprox timeout error: %s\n", e.what());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "qapprox %s error: %s\n", e.kind(), e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qapprox error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "qapprox error: unknown exception\n");
  }
  return 1;
}

}  // namespace qc::common
