#include "metrics/process.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qc::metrics {

using linalg::cplx;
using linalg::Matrix;

namespace {
cplx hs_inner(const Matrix& u, const Matrix& v) {
  QC_CHECK(u.rows() == v.rows() && u.cols() == v.cols() && u.rows() == u.cols());
  // Tr(U† V) = sum_ij conj(U_ij) V_ij — no GEMM needed.
  cplx acc{0.0, 0.0};
  const cplx* up = u.data();
  const cplx* vp = v.data();
  const std::size_t n = u.rows() * u.cols();
  for (std::size_t i = 0; i < n; ++i) acc += std::conj(up[i]) * vp[i];
  return acc;
}
}  // namespace

double hs_fidelity(const Matrix& u, const Matrix& v) {
  const double d = static_cast<double>(u.rows());
  const double f = std::abs(hs_inner(u, v)) / d;
  return std::min(f, 1.0);  // clamp numerical overshoot
}

double hs_distance(const Matrix& u, const Matrix& v) {
  const double f = hs_fidelity(u, v);
  return std::sqrt(std::max(0.0, 1.0 - f * f));
}

double average_gate_fidelity(const Matrix& u, const Matrix& v) {
  const double d = static_cast<double>(u.rows());
  const double t = std::abs(hs_inner(u, v));
  return (t * t + d) / (d * d + d);
}

}  // namespace qc::metrics
