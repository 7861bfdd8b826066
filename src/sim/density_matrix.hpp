// Mixed-state simulator.
//
// The state of density_matrix_probabilities (sim/compiled.hpp): each compiled
// step's unitary and each bound noise channel's Kraus set are applied
// exactly, through the kernel plans the compiled program made once — the
// noisy-output engine the paper's "noise model simulations" map onto. Exact
// probabilities, no sampling noise; practical up to ~7 qubits (128x128 rho),
// far beyond the paper's 5. Channel application is most of its time on
// device noise models, whose CX depolarizing channels are mostly
// permutation-phase terms; those take a one-pass gather (apply_kraus).
#pragma once

#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace qc::sim {

class DensityMatrix {
 public:
  /// |0..0><0..0| on `num_qubits`.
  explicit DensityMatrix(int num_qubits);
  /// rho = |psi><psi| from amplitudes.
  DensityMatrix(int num_qubits, const std::vector<linalg::cplx>& amplitudes);

  int num_qubits() const { return num_qubits_; }
  const linalg::Matrix& rho() const { return rho_; }

  /// rho := U rho U† with U's kernel plan for this width (linalg::plan_kernel),
  /// so compiled programs that plan once don't redo it per application. The
  /// right conjugation reads conj(U) from U's entries; no adjoint is built.
  void apply_unitary(const linalg::Matrix& u, const linalg::KernelPlan& plan,
                     const std::vector<int>& qubits);
  /// rho := sum_i w_i K_i rho K_i† with one kernel plan per operator; `weights`
  /// may be null (all 1, the plain Kraus form) or per-operator branch
  /// probabilities (the mixed-unitary form). The terms are summed in operator
  /// order. A permutation-phase term (a CX depolarizing channel's X/Y
  /// products) is gathered into the sum in one pass
  /// (linalg::add_perm_phase_conjugation); every other term is copied from
  /// rho, conjugated by left_apply and right_apply_adjoint and added with a
  /// real axpy. Both forms round alike, so the sum is bit-identical to the
  /// second form for every term. Reuses persistent scratch — no dim x dim
  /// temporaries are allocated after the first call.
  void apply_kraus(const std::vector<linalg::Matrix>& ops,
                   const std::vector<linalg::KernelPlan>& plans,
                   const std::vector<double>* weights,
                   const std::vector<int>& qubits);

  /// Diagonal of rho: exact outcome distribution.
  std::vector<double> probabilities() const;
  /// Tr(rho^2) in [1/2^n, 1].
  double purity() const;
  /// Tr(rho); stays 1 within rounding for CPTP evolution.
  double trace_real() const;

 private:
  int num_qubits_;
  linalg::Matrix rho_;
  // Channel-application scratch, sized lazily on first use and reused across
  // every subsequent Kraus term and call.
  linalg::Matrix scratch_term_;
  linalg::Matrix scratch_accum_;
};

}  // namespace qc::sim
