// qapprox_e2e: one run of one benchmark workload. perfbench/run.py builds and
// drives it; it can also be run by hand from any empty directory:
//
//   qapprox_e2e --workload tfim_dm --seed 3 --seconds 10 [--trace]
//               [--repeats N] [--setup-only] [--rate JOBS_PER_S]
//               [--reference perfbench/reference.json]
//   qapprox_e2e --record perfbench/reference.json
//
// Prints {"ready": true} once set-up is done, then one JSON result line:
// attempted / failed operations, metrics with units, failure descriptions
// and notes. With --trace it also writes trace.json (Chrome trace-event
// format, loadable in Perfetto) into the working directory.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "linalg/kernels.hpp"
#include "obs/build_info.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "qapprox_e2e: %s\n", why.c_str());
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--rate") o.rate_per_s = std::stod(value());
    else if (a == "--repeats") o.repeats = std::stoi(value());
    else if (a == "--reference") o.reference_path = value();
    else if (a == "--record") o.record_path = value();
    else if (a == "--trace") o.trace = true;
    else if (a == "--setup-only") o.setup_only = true;
    else usage("unknown argument " + a);
  }
  if (o.record_path.empty() && !perfbench::is_batch_workload(o.workload) &&
      o.workload != "serve_mix")
    usage("unknown workload '" + o.workload + "'");
  if (!(o.rate_per_s > 0)) usage("--rate must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options opts = parse(argc, argv);
    if (!opts.record_path.empty()) {
      perfbench::record_references(opts);
      return 0;
    }
    perfbench::Result result;
    if (opts.workload == "serve_mix") {
      perfbench::run_serve_workload(opts, result);
    } else {
      perfbench::run_batch_workload(opts, result);
    }
    if (opts.setup_only) return 0;
    result.notes.push_back("build " + qc::obs::build_info_summary() + "; simd " +
                           qc::linalg::simd_isa_name(qc::linalg::active_simd_isa()));
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qapprox_e2e: %s\n", e.what());
    return 1;
  }
}
