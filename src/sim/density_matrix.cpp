#include "sim/density_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace qc::sim {

using linalg::cplx;
using linalg::Matrix;

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(num_qubits),
      rho_(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits) {
  QC_CHECK(num_qubits > 0 && num_qubits <= 12);
  rho_(0, 0) = cplx{1.0, 0.0};
}

DensityMatrix::DensityMatrix(int num_qubits, const std::vector<cplx>& amplitudes)
    : num_qubits_(num_qubits),
      rho_(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits) {
  QC_CHECK(num_qubits > 0 && num_qubits <= 12);
  const std::size_t dim = std::size_t{1} << num_qubits;
  QC_CHECK(amplitudes.size() == dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c)
      rho_(r, c) = amplitudes[r] * std::conj(amplitudes[c]);
}

void DensityMatrix::apply_unitary(const Matrix& u, const linalg::KernelPlan& plan,
                                  const std::vector<int>& qubits) {
  linalg::left_apply(rho_, u, qubits, plan);
  linalg::right_apply_adjoint(rho_, u, qubits, plan);
}

void DensityMatrix::apply_kraus(const std::vector<Matrix>& ops,
                                const std::vector<linalg::KernelPlan>& plans,
                                const std::vector<double>* weights,
                                const std::vector<int>& qubits) {
  QC_CHECK(!ops.empty() && ops.size() == plans.size());
  QC_CHECK(weights == nullptr || weights->size() == ops.size());
  const std::size_t dim = rho_.rows();
  // The persistent scratch pair is sized on the first channel application and
  // reused (zeroed / copy-assigned in place) on every later one.
  if (scratch_accum_.rows() != dim || scratch_accum_.cols() != dim) {
    scratch_accum_ = Matrix(dim, dim);
  } else {
    std::fill(scratch_accum_.data(), scratch_accum_.data() + dim * dim,
              cplx{0.0, 0.0});
  }
  double* accum = reinterpret_cast<double*>(scratch_accum_.data());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double w = weights ? (*weights)[i] : 1.0;
    if (plans[i].kind == linalg::KernelKind::TwoQPermPhase) {
      // One gather pass straight into the sum, with the same bits as below.
      linalg::add_perm_phase_conjugation(scratch_accum_, rho_, ops[i], plans[i], w);
      continue;
    }
    scratch_term_ = rho_;
    // K_i rho K_i†: K_i on the row qubits, conj(K_i) on the column qubits,
    // then one real axpy into the channel sum.
    linalg::left_apply(scratch_term_, ops[i], qubits, plans[i]);
    linalg::right_apply_adjoint(scratch_term_, ops[i], qubits, plans[i]);
    const double* term = reinterpret_cast<const double*>(scratch_term_.data());
    for (std::size_t j = 0; j < 2 * dim * dim; ++j) accum[j] += w * term[j];
  }
  std::swap(rho_, scratch_accum_);
}

std::vector<double> DensityMatrix::probabilities() const {
  const std::size_t dim = rho_.rows();
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < dim; ++i) p[i] = std::max(0.0, rho_(i, i).real());
  return p;
}

double DensityMatrix::purity() const {
  // Tr(rho^2) = sum_ij |rho_ij|^2 for Hermitian rho.
  double s = 0.0;
  for (std::size_t r = 0; r < rho_.rows(); ++r)
    for (std::size_t c = 0; c < rho_.cols(); ++c) s += std::norm(rho_(r, c));
  return s;
}

double DensityMatrix::trace_real() const { return rho_.trace().real(); }

}  // namespace qc::sim
