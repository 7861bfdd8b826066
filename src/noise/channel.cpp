#include "noise/channel.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "linalg/factories.hpp"

namespace qc::noise {

using linalg::cplx;
using linalg::Matrix;

Channel::Channel(std::vector<linalg::Matrix> kraus, bool validate)
    : kraus_(std::move(kraus)) {
  QC_CHECK(!kraus_.empty());
  const std::size_t dim = kraus_.front().rows();
  QC_CHECK_MSG(std::has_single_bit(dim), "Kraus dimension must be a power of two");
  num_qubits_ = std::countr_zero(dim);
  for (const auto& k : kraus_)
    QC_CHECK_MSG(k.rows() == dim && k.cols() == dim, "Kraus operators must share shape");
  if (validate) QC_CHECK_MSG(is_trace_preserving(1e-8), "channel not trace preserving");
}

bool Channel::is_trace_preserving(double tol) const {
  Matrix sum(dim(), dim());
  for (const auto& k : kraus_) sum += k.adjoint() * k;
  return sum.max_abs_diff(Matrix::identity(dim())) <= tol;
}

Matrix Channel::apply(const Matrix& rho) const {
  QC_CHECK(rho.rows() == dim() && rho.cols() == dim());
  Matrix out(dim(), dim());
  for (const auto& k : kraus_) out += k * rho * k.adjoint();
  return out;
}

Channel Channel::compose(const Channel& other) const {
  QC_CHECK(other.num_qubits_ == num_qubits_);
  std::vector<Matrix> ks;
  ks.reserve(kraus_.size() * other.kraus_.size());
  for (const auto& b : other.kraus_)
    for (const auto& a : kraus_) ks.push_back(b * a);
  return Channel(std::move(ks));
}

bool Channel::mixed_unitary_form(std::vector<double>& probs,
                                 std::vector<Matrix>& unitaries, double tol) const {
  probs.clear();
  unitaries.clear();
  const double d = static_cast<double>(dim());
  for (const auto& k : kraus_) {
    // K = sqrt(p) U  =>  K†K = p I.
    Matrix ktk = k.adjoint() * k;
    const double p = ktk.trace().real() / d;
    if (p < tol) {
      // Negligible component; keep a zero-probability identity so indices align.
      probs.push_back(0.0);
      unitaries.push_back(Matrix::identity(dim()));
      continue;
    }
    if (ktk.max_abs_diff(Matrix::identity(dim()) * cplx{p, 0.0}) > tol) return false;
    probs.push_back(p);
    unitaries.push_back(k * cplx{1.0 / std::sqrt(p), 0.0});
  }
  return true;
}

Channel unitary_channel(const Matrix& u) {
  QC_CHECK_MSG(u.is_unitary(1e-8), "unitary_channel needs a unitary matrix");
  return Channel({u});
}

Channel depolarizing(double p, int num_qubits) {
  QC_CHECK_MSG(p >= 0.0 && p <= 1.0, "depolarizing probability out of range");
  QC_CHECK(num_qubits >= 1 && num_qubits <= 3);
  // rho -> (1 - p) rho + p I/d = sum over all Pauli strings with the
  // identity weighted (1 - p + p/4^n) and the rest p/4^n each.
  const std::size_t num_paulis = std::size_t{1} << (2 * num_qubits);  // 4^n
  const double p_other = p / static_cast<double>(num_paulis);
  const double p_id = 1.0 - p + p_other;

  static const char pauli_chars[4] = {'I', 'X', 'Y', 'Z'};
  std::vector<Matrix> ks;
  ks.reserve(num_paulis);
  for (std::size_t code = 0; code < num_paulis; ++code) {
    std::string s;
    std::size_t c = code;
    for (int q = 0; q < num_qubits; ++q) {
      s += pauli_chars[c & 3];
      c >>= 2;
    }
    const double w = (code == 0) ? p_id : p_other;
    ks.push_back(linalg::pauli_string(s) * cplx{std::sqrt(w), 0.0});
  }
  return Channel(std::move(ks));
}

Channel pauli_channel(double px, double py, double pz) {
  const double pi = 1.0 - px - py - pz;
  QC_CHECK_MSG(pi >= -1e-12 && px >= 0 && py >= 0 && pz >= 0,
               "invalid Pauli channel probabilities");
  std::vector<Matrix> ks;
  ks.push_back(linalg::pauli_i() * cplx{std::sqrt(std::max(0.0, pi)), 0.0});
  ks.push_back(linalg::pauli_x() * cplx{std::sqrt(px), 0.0});
  ks.push_back(linalg::pauli_y() * cplx{std::sqrt(py), 0.0});
  ks.push_back(linalg::pauli_z() * cplx{std::sqrt(pz), 0.0});
  return Channel(std::move(ks));
}

Channel bit_flip(double p) { return pauli_channel(p, 0.0, 0.0); }
Channel phase_flip(double p) { return pauli_channel(0.0, 0.0, p); }

Channel amplitude_damping(double gamma) {
  QC_CHECK(gamma >= 0.0 && gamma <= 1.0);
  Matrix k0(2, 2, {{1, 0}, {0, 0}, {0, 0}, {std::sqrt(1.0 - gamma), 0}});
  Matrix k1(2, 2, {{0, 0}, {std::sqrt(gamma), 0}, {0, 0}, {0, 0}});
  return Channel({k0, k1});
}

Channel phase_damping(double lambda) {
  QC_CHECK(lambda >= 0.0 && lambda <= 1.0);
  Matrix k0(2, 2, {{1, 0}, {0, 0}, {0, 0}, {std::sqrt(1.0 - lambda), 0}});
  Matrix k1(2, 2, {{0, 0}, {0, 0}, {0, 0}, {std::sqrt(lambda), 0}});
  return Channel({k0, k1});
}

Channel thermal_relaxation(double t1, double t2, double duration) {
  QC_CHECK(t1 > 0.0 && t2 > 0.0 && duration >= 0.0);
  QC_CHECK_MSG(t2 <= 2.0 * t1 + 1e-12, "thermal relaxation requires T2 <= 2 T1");
  const double gamma = 1.0 - std::exp(-duration / t1);
  // Total off-diagonal decay must be e^{-t/T2}; amplitude damping alone gives
  // sqrt(1-gamma) = e^{-t/(2 T1)}; the residual is pure dephasing.
  const double target_coherence = std::exp(-duration / t2);
  const double ad_coherence = std::exp(-duration / (2.0 * t1));
  double residual = target_coherence / ad_coherence;  // <= 1 when T2 <= 2 T1
  residual = std::min(1.0, residual);
  const double lambda = 1.0 - residual * residual;
  return amplitude_damping(gamma).compose(phase_damping(lambda));
}

Channel zz_overrotation(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  Matrix u = Matrix::identity(4) * cplx{c, 0.0};
  u += linalg::pauli_string("ZZ") * cplx{0.0, -s};
  return unitary_channel(u);
}

}  // namespace qc::noise
