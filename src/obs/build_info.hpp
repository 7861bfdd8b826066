// Configure-time build stamp: git SHA, compiler, flags and build type.
// Generated into build_info.cpp by CMake so every binary (and every RunRecord
// / bench JSON) can state exactly what code produced its numbers.
#pragma once

#include <string>

namespace qc::obs {

struct BuildInfo {
  const char* git_sha;     // short SHA, or "unknown" outside a git checkout
  const char* compiler;    // e.g. "GNU 12.2.0"
  const char* flags;       // CMAKE_CXX_FLAGS + build-type flags (+ sanitizers)
  const char* build_type;  // Release / Debug / ...
};

const BuildInfo& build_info();

/// One line: "qapprox <sha> | <compiler> | <type> | <flags>".
std::string build_info_summary();

/// JSON object with the same fields.
std::string build_info_json();

}  // namespace qc::obs
