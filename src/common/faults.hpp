// Deterministic fault injection for resilience testing.
//
// Production code is laced with a handful of named injection sites (synthesis
// entry, run_batch worker tasks, trajectory shots). Each site asks
// `fires(site, stream)`; with no spec installed that is one relaxed atomic
// load and a branch — the harness costs nothing when off.
//
// A spec arms sites with firing probabilities:
//
//   QAPPROX_FAULTS="synth:0.15,worker:0.1,nan:0.001,slow:0.05:20,seed=7"
//
// Grammar: comma-separated entries, each `site:probability[:param]` or
// `seed=N`, every number read by common::parse_decimal: probability in
// [0, 1], param in [0, kMaxPeriodMs], N a decimal integer in [0, 2^64). Sites:
//
//   synth   — throw SynthesisError at synthesizer entry (stream: the
//             synthesis seed), forcing the driver retry/fallback path
//   worker  — throw SimulationError inside a run_batch worker task
//             (stream: the batch index, or RunRequest::fault_stream)
//   nan     — corrupt the trajectory state vector with NaN amplitudes just
//             before measurement (stream: the per-shot RNG seed), tripping
//             the norm-drift guard
//   slow    — sleep `param` milliseconds (default 10) in a run_batch worker
//             task before executing the request
//
// Firing is a pure function of (spec seed, site, caller stream id) — no
// global RNG, no thread-schedule dependence — so a given instance either
// always faults or never faults at a fixed seed, and every non-faulted
// instance produces bit-identical results to a clean run.
#pragma once

#include <cstdint>
#include <string>

namespace qc::common::faults {

enum class Site : int { SynthFail = 0, WorkerThrow = 1, StateNan = 2, SlowTask = 3 };

/// Fast gate: true when any site is armed (relaxed atomic load). The first
/// call reads QAPPROX_FAULTS.
bool enabled();

/// True when `site` is armed and the (seed, site, stream) hash falls under
/// the site's probability. Counts fires in obs metrics (faults.<site>.fired).
bool fires(Site site, std::uint64_t stream);

/// The site's extra parameter (slow: delay ms). 0 when unarmed/absent.
double param(Site site);

/// Sleeps the slow-site delay when `fires(SlowTask, stream)`.
void maybe_delay(std::uint64_t stream);

/// Installs a spec programmatically (tests), replacing any environment spec.
/// Empty string disarms everything. Throws ContractError on a malformed
/// spec; the environment path warns and disarms instead.
void install_spec(const std::string& spec);

/// The armed spec in canonical form ("" when disarmed).
std::string active_spec();

const char* site_name(Site site);

}  // namespace qc::common::faults
