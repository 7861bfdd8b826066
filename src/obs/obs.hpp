// Umbrella header for the observability layer: span tracing (trace.hpp),
// metrics registry (metrics.hpp), leveled logging (log.hpp), and the
// configure-time build stamp (build_info.hpp).
//
// Environment contract (all optional; everything is zero-overhead when the
// variables are unset):
//
//   QAPPROX_TRACE=<path>    buffer spans, write Chrome trace-event JSON to
//                           <path> at process exit (open in Perfetto or
//                           chrome://tracing)
//   QAPPROX_METRICS=<path>  enable duration histograms, write a metrics +
//                           build-info JSON snapshot to <path> at exit
//   QAPPROX_LOG=<level>     debug | info | warn (default) | error | off
//
// init_from_env() applies that contract exactly once; it is called from the
// cold constructors of ThreadPool, ExecutionEngine, and BenchContext, so any
// binary that executes circuits is covered without explicit setup.
#pragma once

#include "obs/build_info.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qc::obs {

/// Reads QAPPROX_LOG / QAPPROX_TRACE / QAPPROX_METRICS once and arms the
/// at-exit exporters. Idempotent, thread-safe, cheap after the first call.
void init_from_env();

/// QAPPROX_METRICS export path resolved by init_from_env ("" when unset).
const std::string& metrics_export_path();

/// Writes the armed QAPPROX_TRACE / QAPPROX_METRICS exports immediately (the
/// same files the at-exit hook would produce). Long-lived daemons call this
/// after a graceful SIGTERM drain so killed soaks still leave artifacts even
/// if a later teardown step wedges; calling it again (or the at-exit hook
/// re-firing) just overwrites with fresher data. No-op when neither export
/// is armed.
void flush_exports();

}  // namespace qc::obs
