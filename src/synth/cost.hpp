// Synthesis cost functions.
//
// The objective is the smooth fidelity gap
//     f(x) = 1 - |Tr(T† V(x))| / d
// whose zero set coincides with hs_distance = 0; hs_distance follows as
// sqrt(f (1 + |Tr|/d)) = sqrt(1 - (1-f)^2).
//
// The gradient computes all P partials in one forward/backward
// partial-product sweep — O(m·dim²), about two unitary builds regardless of
// P — by writing W = Tr(T† V) and, for the U3 at slot k,
// ∂W = Tr(L_k · S_{k+1} · ∂O_k)  with the prefix product
// L_k = O_{k-1}···O_0 · T† maintained by row ops and the suffix products
// S_{k+1} = O_{m-1}···O_{k+1} precomputed by column ops. The tests keep a
// central-difference gradient as its oracle.
#pragma once

#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "synth/template.hpp"

namespace qc::synth {

class HsCost {
 public:
  /// Borrows `target`; the caller keeps it alive for the cost's lifetime.
  /// Searches build one cost per explored node against the same target, so
  /// borrowing avoids a dim² copy (and allocation) per node.
  HsCost(const TemplateCircuit& tpl, const linalg::Matrix& target);
  /// Takes ownership of a temporary target (benchmarks, one-off callers).
  HsCost(const TemplateCircuit& tpl, linalg::Matrix&& target);

  int dim() const { return static_cast<int>(target_->rows()); }
  int num_params() const { return tpl_.num_params(); }

  /// 1 - |Tr(T† V(x))| / d, in [0, 1]. Leaves the U3 entries and θ-partials
  /// at x in the scratch, so a gradient at the same x skips their trig.
  double operator()(const std::vector<double>& params) const;

  /// HS distance at x: sqrt(1 - (1 - f)^2).
  double hs_distance(const std::vector<double>& params) const;

  /// Closed-form gradient via the partial-product sweep (records
  /// synth.gradient_ns when timing is armed). Bit for bit the same whether
  /// or not a value call at the same x came first.
  void gradient(const std::vector<double>& params, std::vector<double>& grad) const;

  const linalg::Matrix& target() const { return *target_; }

 private:
  /// The value's and the gradient sweep's source bodies: inline and defined
  /// in cost.cpp, where operator() and gradient() run them through
  /// synth/kernels.hpp's dispatch. Both read the U3 entries from slots_.
  static inline double value(const HsCost& cost);
  static inline void sweep(const HsCost& cost, const std::vector<double>& params,
                           std::vector<double>& grad);
  /// Fills slots_ at `params`, unless they already hold that point.
  void fill_slots(const std::vector<double>& params) const;

  TemplateCircuit tpl_;
  std::shared_ptr<const linalg::Matrix> owned_;  // null when borrowing
  const linalg::Matrix* target_;
  mutable linalg::Matrix scratch_;
  // Analytic-sweep scratch, reused across calls to keep the hot path
  // allocation-free after warm-up.
  mutable linalg::Matrix prefix_;
  mutable std::vector<linalg::Matrix> suffix_;
  /// Per U3 slot (indexed by param_offset / 3): the gate's entries and its
  /// θ-partial, evaluated from one U3Trig at the point slots_at_. L-BFGS
  /// takes the gradient at the point of its last accepted value, so the
  /// gradient reuses the value's trig. The point is compared by memcmp:
  /// -0.0 == 0.0, but sin(-0.0) is -0.0.
  struct SlotEntries {
    U3Entries g;
    double dt00;  // real; the imaginary part is zero
    linalg::cplx dt01, dt10, dt11;
  };
  mutable std::vector<SlotEntries> slots_;
  mutable std::vector<double> slots_at_;
  mutable std::vector<linalg::cplx> dw_;
};

/// 1 - min(|Tr(T† V)| / d, 1) for square T and V of equal size: the
/// fidelity gap HsCost minimizes, also used by the reducer's boundary cost.
double fidelity_gap(const linalg::Matrix& target, const linalg::Matrix& v);

/// The reducer's boundary cost: fidelity_gap(target, B · kept · A), where A
/// and B are U3 layers on every qubit with angles x = [A (3n), B (3n)] and A
/// acts first. `scratch` receives B · kept · A (resized if needed).
double boundary_gap(const linalg::Matrix& target, const linalg::Matrix& kept,
                    const std::vector<double>& x, linalg::Matrix& scratch);

/// The central-difference gradient of boundary_gap at x with step h:
/// grad[i] = (f(x + h·e_i) - f(x - h·e_i)) / (2h), bit for bit the value of
/// that loop over boundary_gap calls. A probe of an angle of boundary op t
/// (t < n: A on qubit t; t >= n: B on qubit t - n) changes only ops t..2n-1,
/// so the products after ops 0..2n-2 are built once into `checkpoints` and
/// each probe restarts from the one before its op: 6n(2n+1) + 2n - 1 U3 row
/// or column ops per gradient instead of 24n², about 58% of them at n = 4.
/// `checkpoints` and `scratch` are reused across calls (resized if needed).
void boundary_gap_gradient(const linalg::Matrix& target, const linalg::Matrix& kept,
                           const std::vector<double>& x, double h, std::vector<double>& grad,
                           std::vector<linalg::Matrix>& checkpoints, linalg::Matrix& scratch);

/// Converts a smooth cost value to the HS distance it implies.
double cost_to_hs_distance(double cost);

}  // namespace qc::synth
