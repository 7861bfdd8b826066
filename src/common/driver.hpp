// Shared driver boilerplate for anything that hosts the pipeline: bench
// mains, examples, and the serve job builders.
//
// Every run-to-completion driver used to repeat the same setup — initialize
// observability from the environment, validate the thread/seed env knobs,
// build catalog devices (each call re-synthesizes the calibration snapshot),
// and grab the global ExecutionEngine. This module centralizes that path so
// the long-lived server and the one-shot drivers construct their world the
// same way:
//
//   * init_runtime()         — idempotent process setup (obs env, fault spec
//                              arming, deadline env touch)
//   * engine()               — the shared ExecutionEngine
//   * device(name)           — memoized catalog lookup (devices are
//                              deterministic; building Manhattan's 65-qubit
//                              snapshot per job would be pure waste)
//   * execution_config(...)  — name -> ExecutionConfig preset mapping shared
//                              by CLI flags and wire jobs
//   * DriverContext          — the common CLI surface (--fast/--shots/--seed/
//                              --csv/--version) every figure binary parses
//
// Compiled into its own target (qc_driver) because it sits *above* qc_exec
// and qc_noise in the layer stack even though the header lives in common/.
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.hpp"
#include "exec/engine.hpp"
#include "noise/device.hpp"

namespace qc::common::driver {

/// One-time process setup: obs::init_from_env(), fault-spec arming
/// (QAPPROX_FAULTS), and a QAPPROX_DEADLINE_MS parse so a malformed value
/// warns at startup instead of mid-study. Idempotent and thread-safe; every
/// entry point below calls it, so explicit use is optional.
void init_runtime();

/// The process-wide shared ExecutionEngine (alias of
/// exec::ExecutionEngine::global() after init_runtime()).
exec::ExecutionEngine& engine();

/// Memoized noise::device_by_name: first lookup builds the calibration
/// snapshot, later lookups share it. Throws on unknown names (same contract
/// as the catalog). Thread-safe.
const noise::DeviceProperties& device(const std::string& name);

/// Execution-mode presets by name: "simulator" (DM engine, level 1),
/// "hardware" (trajectory engine, level 3, surplus noise), "ideal"
/// (noise-free reference). Throws ContractError on unknown modes.
exec::ExecutionConfig execution_config(const std::string& device_name,
                                       const std::string& mode);

/// Default seed for drivers: QAPPROX_SEED when set (decimal, like --seed),
/// else `fallback`. A malformed value warns and returns the fallback.
std::uint64_t default_seed(std::uint64_t fallback);

/// Most shots one run may ask for, on the command line and on the wire.
inline constexpr std::size_t kMaxShots = std::size_t{1} << 20;

/// The CLI surface shared by figure binaries and examples. Construction runs
/// init_runtime(), parses the common flags, and services --version (prints
/// the build stamp and exits 0). --shots must lie in [1, kMaxShots]; a bad
/// value throws ContractError.
struct DriverContext {
  CliArgs args;
  bool fast = false;
  std::size_t shots = 2048;
  std::uint64_t seed = 11;
  std::string csv_path;

  DriverContext(int argc, char** argv, const std::string& id);
};

}  // namespace qc::common::driver
