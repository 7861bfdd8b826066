// SIMD ISA helpers shared by the test binaries that pin bit-identity across
// the kernel ISAs.
#pragma once

#include <vector>

#include "linalg/kernels.hpp"

namespace qc::simd_test {

/// Restores the SIMD ISA that was active when it was made.
struct SimdIsaRestorer {
  linalg::SimdIsa saved = linalg::active_simd_isa();
  ~SimdIsaRestorer() { linalg::force_simd_isa(saved); }
};

/// The SIMD ISAs this host can force: the baseline copies, and the AVX2
/// copies where the host runs them.
inline std::vector<linalg::SimdIsa> forceable_isas() {
  std::vector<linalg::SimdIsa> isas{linalg::SimdIsa::Scalar};
  if (linalg::simd_isa_supported(linalg::SimdIsa::Avx2)) isas.push_back(linalg::SimdIsa::Avx2);
  return isas;
}

}  // namespace qc::simd_test
