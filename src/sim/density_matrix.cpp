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

void DensityMatrix::apply(const ir::Gate& gate) {
  if (gate.kind == ir::GateKind::Barrier || gate.kind == ir::GateKind::Measure) return;
  const Matrix u = gate.matrix();
  apply_unitary(u, linalg::plan_kernel(u, gate.qubits, rho_.rows()), gate.qubits);
}

void DensityMatrix::apply_unitary(const Matrix& u, const linalg::KernelPlan& plan,
                                  const std::vector<int>& qubits) {
  linalg::left_apply(rho_, u, qubits, plan);
  linalg::right_apply_adjoint(rho_, u, qubits, plan);
}

void DensityMatrix::apply(const ir::QuantumCircuit& circuit) {
  QC_CHECK(circuit.num_qubits() <= num_qubits_);
  for (const ir::Gate& g : circuit.gates()) apply(g);
}

void DensityMatrix::apply_channel(const noise::Channel& channel,
                                  const std::vector<int>& qubits) {
  QC_CHECK(static_cast<std::size_t>(channel.num_qubits()) == qubits.size());
  const auto& kraus = channel.kraus();
  std::vector<linalg::KernelPlan> plans;
  plans.reserve(kraus.size());
  for (const Matrix& k : kraus) plans.push_back(linalg::plan_kernel(k, qubits, rho_.rows()));
  apply_kraus(kraus, plans, nullptr, qubits);
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
  for (std::size_t i = 0; i < ops.size(); ++i) {
    scratch_term_ = rho_;
    linalg::left_apply(scratch_term_, ops[i], qubits, plans[i]);
    // The right conjugation and the weighted channel sum fuse into one pass:
    // each row of K_i rho is transformed by K_i† and accumulated while still
    // cache-hot, instead of a full right_apply sweep plus a dim^2 axpy.
    linalg::right_apply_adjoint_accumulate(scratch_accum_, scratch_term_, ops[i],
                                           qubits, plans[i],
                                           weights ? (*weights)[i] : 1.0);
  }
  std::swap(rho_, scratch_accum_);
}

std::vector<double> DensityMatrix::probabilities() const {
  const std::size_t dim = rho_.rows();
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < dim; ++i) p[i] = std::max(0.0, rho_(i, i).real());
  return p;
}

double DensityMatrix::expectation_z(int q) const {
  QC_CHECK(q >= 0 && q < num_qubits_);
  const std::size_t bit = std::size_t{1} << q;
  double e = 0.0;
  for (std::size_t i = 0; i < rho_.rows(); ++i)
    e += ((i & bit) ? -1.0 : 1.0) * rho_(i, i).real();
  return e;
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
