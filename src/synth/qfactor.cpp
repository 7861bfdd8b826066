#include "synth/qfactor.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/kernels.hpp"
#include "metrics/process.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"
#include "synth/kernels.hpp"
#include "transpile/decompose.hpp"
#include "transpile/euler.hpp"

namespace qc::synth {

using ir::Gate;
using ir::GateKind;
using ir::QuantumCircuit;
using linalg::cplx;
using linalg::Matrix;

namespace {

/// Hermitian 2x2 eigendecomposition: returns eigenvalues (ascending) and
/// orthonormal eigenvector columns in q.
void eig_hermitian_2x2(const Matrix& h, double& l0, double& l1, Matrix& q) {
  const double a = h(0, 0).real();
  const double d = h(1, 1).real();
  const cplx b = h(0, 1);
  const double tr = a + d;
  const double det = a * d - std::norm(b);
  const double disc = std::sqrt(std::max(0.0, tr * tr / 4.0 - det));
  l0 = tr / 2.0 - disc;
  l1 = tr / 2.0 + disc;

  q = Matrix::identity(2);
  if (std::abs(b) < 1e-300 && std::abs(a - d) < 1e-300) return;  // scalar
  // Eigenvector for l1: (b, l1 - a) or (l1 - d, conj(b)).
  cplx v0 = b, v1 = cplx{l1 - a, 0.0};
  if (std::abs(v0) + std::abs(v1) < 1e-150) {
    v0 = cplx{l1 - d, 0.0};
    v1 = std::conj(b);
  }
  const double n = std::sqrt(std::norm(v0) + std::norm(v1));
  if (n < 1e-150) return;
  v0 /= n;
  v1 /= n;
  // q columns: [v_perp, v] with eigenvalues (l0, l1).
  q(0, 0) = -std::conj(v1);
  q(1, 0) = std::conj(v0);
  q(0, 1) = v0;
  q(1, 1) = v1;
}

/// qfactor_environment's body: per base row pair, the partial sums of
/// accumulate_environment, added to kt one base at a time.
QAPPROX_SYNTH_INLINE Matrix environment(const Matrix& l, const Matrix& s, int qubit) {
  const std::size_t dim = l.rows();
  const std::size_t stride = 2 * dim;
  const double* lp = reinterpret_cast<const double*>(l.data());
  const double* sp = reinterpret_cast<const double*>(s.data());
  const std::size_t bit = std::size_t{1} << qubit;
  Matrix kt(2, 2);
  for (std::size_t base = 0; base < dim; ++base) {
    if (base & bit) continue;
    detail::Environment env;
    detail::accumulate_environment(lp + base * stride, lp + (base | bit) * stride, sp, stride,
                                   base, base | bit, dim, env);
    kt(0, 0) += cplx{env.row0[0], env.row0[1]};
    kt(0, 1) += cplx{env.row0[2], env.row0[3]};
    kt(1, 0) += cplx{env.row1[0], env.row1[1]};
    kt(1, 1) += cplx{env.row1[2], env.row1[3]};
  }
  return kt;
}

QFactorResult run_qfactor(const QuantumCircuit& structure, const Matrix& target,
                          const QFactorOptions& options) {
  const QuantumCircuit basis =
      transpile::decompose_to_cx_u3(structure).unitary_part();
  const int n = basis.num_qubits();
  const std::size_t dim = std::size_t{1} << n;
  QC_CHECK_MSG(target.rows() == dim && target.cols() == dim,
               "target dimension must match circuit width");
  const double d = static_cast<double>(dim);

  // Mutable gate matrices (U3 slots get rewritten; CX stays).
  std::vector<Matrix> mats;
  std::vector<const Gate*> gates;
  for (const Gate& g : basis.gates()) {
    mats.push_back(g.matrix());
    gates.push_back(&g);
  }
  const std::size_t m = mats.size();

  QFactorResult result;
  static obs::Histogram& opt_ns = obs::histogram("synth.qfactor_ns");
  obs::Span span("synth.qfactor", &opt_ns);
  // Destroyed before `span`, so the args land on it. The residual histogram
  // stores hs_distance * 1e12 (log2 buckets then read as order of magnitude:
  // bucket b covers residuals around 2^b * 1e-12).
  struct Tally {
    QFactorResult& r;
    obs::Span& s;
    ~Tally() {
      static obs::Counter& sweeps = obs::counter("synth.qfactor.sweeps");
      static obs::Histogram& residual = obs::histogram("synth.qfactor.residual_e12");
      sweeps.add(static_cast<std::uint64_t>(r.sweeps));
      if (obs::timing_enabled() && r.hs_distance >= 0.0)
        residual.record(static_cast<std::uint64_t>(r.hs_distance * 1e12));
      if (s.active()) {
        s.arg("sweeps", r.sweeps);
        s.arg("residual", r.hs_distance);
        s.arg("converged", static_cast<int>(r.converged));
      }
    }
  } tally{result, span};
  result.circuit = basis;
  if (m == 0) {
    result.hs_distance = metrics::hs_distance(target, Matrix::identity(dim));
    return result;
  }

  const Matrix t_dag = target.adjoint();
  double prev_overlap = -1.0;

  std::vector<Matrix> suffix(m + 1);  // suffix[k] = O_{m-1} ... O_k (embedded)
  Matrix lmat;  // B_k · T†, advanced by left_apply
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    // Sweeps improve monotonically, so stopping after any whole sweep still
    // returns a valid (just less converged) circuit.
    if (options.deadline.expired()) {
      result.timed_out = true;
      break;
    }
    ++result.sweeps;

    // suffix[k] = product of ops k..m-1 applied after slot k-1.
    suffix[m] = Matrix::identity(dim);
    for (std::size_t k = m; k-- > 0;) {
      suffix[k] = suffix[k + 1];
      linalg::right_apply(suffix[k], mats[k], gates[k]->qubits);
      // right-apply builds suffix[k] = suffix[k+1] * embed(O_k)  (= O_{m-1}..O_k
      // when read as an operator product).
    }

    // Forward pass over L = B T† (L_0 = T†); each 1q slot's environment
    // M = L · suffix[k+1] is only needed on the 2x2 block the gate sees,
    //   K^T(i, j) = sum_base M(base|i·bit, base|j·bit),
    // extracted from L and the suffix in O(dim²) without forming M. The
    // slot update itself is then an O(dim²) row op on L — no dim³ GEMM
    // anywhere in the sweep.
    lmat = t_dag;
    for (std::size_t k = 0; k < m; ++k) {
      if (gates[k]->qubits.size() == 1) {
        const Matrix kt = qfactor_environment(lmat, suffix[k + 1], gates[k]->qubits[0]);
        mats[k] = best_unitary_for_environment(kt);
      }
      linalg::left_apply(lmat, mats[k], gates[k]->qubits);
    }
    // L_m = V·T†, so the overlap trace costs O(dim).
    cplx acc{0.0, 0.0};
    for (std::size_t i = 0; i < dim; ++i) acc += lmat(i, i);
    const double overlap = std::abs(acc) / d;

    const double fid = std::min(1.0, overlap);
    result.hs_distance = std::sqrt(std::max(0.0, 1.0 - fid * fid));
    if (result.hs_distance < options.success_threshold) {
      result.converged = true;
      break;
    }
    if (overlap - prev_overlap < options.tolerance && sweep > 0) break;
    prev_overlap = overlap;
  }

  // Rebuild the circuit with the optimized single-qubit gates.
  QuantumCircuit out(n, structure.name());
  for (std::size_t k = 0; k < m; ++k) {
    if (gates[k]->qubits.size() == 1) {
      out.append(transpile::u3_from_matrix(mats[k], gates[k]->qubits[0]));
    } else {
      out.append(*gates[k]);
    }
  }
  result.circuit = std::move(out);
  result.hs_distance = metrics::hs_distance(target, result.circuit.to_unitary());
  result.converged = result.hs_distance < options.success_threshold;
  return result;
}

}  // namespace

Matrix qfactor_environment(const Matrix& l, const Matrix& suffix, int qubit) {
  QC_CHECK(l.rows() == l.cols() && suffix.rows() == l.rows() && suffix.cols() == l.cols());
  QC_CHECK(qubit >= 0 && (std::size_t{1} << qubit) < l.rows());
  return detail::dispatch<environment>(l, suffix, qubit);
}

Matrix best_unitary_for_environment(const Matrix& k) {
  QC_CHECK(k.rows() == 2 && k.cols() == 2);
  // SVD K = P S Q†; |Tr(U K)| is maximized by U = Q P†.
  const Matrix ktk = k.adjoint() * k;
  double s0sq, s1sq;
  Matrix q;
  eig_hermitian_2x2(ktk, s0sq, s1sq, q);
  const double s1 = std::sqrt(std::max(0.0, s1sq));
  const double s0 = std::sqrt(std::max(0.0, s0sq));

  // P columns: p_i = K q_i / s_i; complete orthonormally when singular.
  Matrix p(2, 2);
  auto set_col = [&](int col, cplx x0, cplx x1) {
    p(0, col) = x0;
    p(1, col) = x1;
  };
  // Column 1 (largest singular value) first.
  if (s1 > 1e-150) {
    const cplx x0 = (k(0, 0) * q(0, 1) + k(0, 1) * q(1, 1)) / s1;
    const cplx x1 = (k(1, 0) * q(0, 1) + k(1, 1) * q(1, 1)) / s1;
    set_col(1, x0, x1);
  } else {
    set_col(1, cplx{1, 0}, cplx{0, 0});  // K ~ 0: any unitary works
  }
  if (s0 > 1e-12 * std::max(1.0, s1)) {
    const cplx x0 = (k(0, 0) * q(0, 0) + k(0, 1) * q(1, 0)) / s0;
    const cplx x1 = (k(1, 0) * q(0, 0) + k(1, 1) * q(1, 0)) / s0;
    set_col(0, x0, x1);
  } else {
    // Orthogonal complement of column 1.
    set_col(0, -std::conj(p(1, 1)), std::conj(p(0, 1)));
  }
  Matrix u = q * p.adjoint();
  // Re-unitarize (2x2 Gram-Schmidt): the SVD route accumulates ~1e-7 error,
  // which would compound over sweeps and break the exact ZYZ rebuild.
  {
    double n0 = std::sqrt(std::norm(u(0, 0)) + std::norm(u(1, 0)));
    QC_CHECK_MSG(n0 > 1e-12, "degenerate environment update");
    u(0, 0) /= n0;
    u(1, 0) /= n0;
    const cplx proj = std::conj(u(0, 0)) * u(0, 1) + std::conj(u(1, 0)) * u(1, 1);
    u(0, 1) -= proj * u(0, 0);
    u(1, 1) -= proj * u(1, 0);
    const double n1 = std::sqrt(std::norm(u(0, 1)) + std::norm(u(1, 1)));
    QC_CHECK_MSG(n1 > 1e-12, "degenerate environment update");
    u(0, 1) /= n1;
    u(1, 1) /= n1;
  }
  QC_CHECK_MSG(u.is_unitary(1e-9), "environment update lost unitarity");
  return u;
}

QFactorResult qfactor_optimize(const QuantumCircuit& structure, const Matrix& target,
                               const QFactorOptions& options) {
  // Everything a run's result depends on besides the target and the seed
  // structure; QFactor draws no random numbers, so the key's seed stays 0.
  const SynthKey key{SynthTool::QFactor, target.fingerprint(), structure.fingerprint(),
                     target.rows(), structure.num_qubits(), {},
                     key_options(options.tolerance, options.success_threshold,
                                 options.max_sweeps),
                     0};
  return cached_synthesis<QFactorResult>(
      key, {},
      [&](std::vector<ApproxCircuit>&) { return run_qfactor(structure, target, options); });
}

}  // namespace qc::synth
