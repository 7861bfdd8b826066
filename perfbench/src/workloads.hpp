// The benchmark's workloads (see perfbench/README.md for why each exists).
#pragma once

#include "ledger.hpp"

namespace perfbench {

/// tfim_dm, tfim_hw and toffoli_dm: one paper figure per repeat, rebuilt
/// from public calls (reference circuits, harvest, batch execution, scoring).
void run_batch_workload(const Options& opts, Result& out);

/// serve_mix: an in-process server driven open-loop by a seeded job stream.
void run_serve_workload(const Options& opts, Result& out);

/// Runs one figure of every batch workload and input variant and writes the
/// output digests the batch workloads check against.
void record_references(const Options& opts);

bool is_batch_workload(const std::string& name);

}  // namespace perfbench
