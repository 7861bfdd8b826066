// Parameterized circuit templates (ansätze) for numerical synthesis.
//
// A TemplateCircuit is a fixed gate *structure* — CX gates at fixed
// positions, U3 gates whose three angles are free parameters — exactly the
// search space QSearch/QFast explore. The unitary builder here is the hot
// loop of synthesis (called hundreds of thousands of times per search), so
// it uses dedicated row-operation kernels with no per-gate heap allocation.
// The same row/column kernels serve the analytic gradient sweep in cost.cpp,
// which walks the op list directly via ops(), and are exported as rowops.
// Their bodies live in synth/kernels.hpp: each of unitary() and the rowops
// runs one source body at the baseline ISA or, when linalg::active_simd_isa()
// is AVX2, at AVX2 width without FMA — the same bits either way.
#pragma once

#include <vector>

#include "ir/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qc::synth {

/// The four entries of U3(theta, phi, lambda) as a dense 2x2:
///   [[g00, g01], [g10, g11]].
struct U3Entries {
  linalg::cplx g00, g01, g10, g11;
};

/// The four sin/cos pairs U3(theta, phi, lambda) and its partials are built
/// from: theta/2, phi, lambda and phi + lambda.
struct U3Trig {
  U3Trig(double theta, double phi, double lambda);
  double cos_half, sin_half;
  double cos_phi, sin_phi;
  double cos_lambda, sin_lambda;
  double cos_sum, sin_sum;
};

/// Entries of U3(theta, phi, lambda) — the single source of the gate's
/// phase convention, shared by the unitary builder, the gradient sweep and
/// the reducer's boundary cost.
U3Entries u3_entries(const U3Trig& t);
U3Entries u3_entries(double theta, double phi, double lambda);

// The U3 kernels write each complex product out on the interleaved doubles,
// bit-identical to the complex-typed loops for finite inputs (see
// synth/kernels.hpp). Each call dispatches on linalg::active_simd_isa().
namespace rowops {

/// m := embed(U3 on q) * m  (row mixing).
void left_u3(linalg::Matrix& m, int q, const U3Entries& g);
/// m := embed(CX) * m  (row swaps in the control=1 half-space).
void left_cx(linalg::Matrix& m, int control, int target);
/// m := m * embed(U3 on q)  (column mixing).
void right_u3(linalg::Matrix& m, int q, const U3Entries& g);
/// m := m * embed(CX)  (column swaps; CX is its own transpose/inverse).
void right_cx(linalg::Matrix& m, int control, int target);

}  // namespace rowops

class TemplateCircuit {
 public:
  explicit TemplateCircuit(int num_qubits);

  /// One structural slot: a fixed CX or a parameterized U3.
  struct Op {
    bool is_cx;
    int a;             // U3 qubit, or CX control
    int b;             // CX target (unused for U3)
    int param_offset;  // first of 3 params (U3 only)
  };

  int num_qubits() const { return num_qubits_; }
  /// Total free parameters (3 per U3 slot).
  int num_params() const { return 3 * num_u3_; }
  /// Number of CX gates in the structure.
  std::size_t cx_count() const { return num_cx_; }
  /// The structural slots, in application order (op 0 acts first).
  const std::vector<Op>& ops() const { return ops_; }

  /// Appends a parameterized U3 on qubit q.
  void add_u3(int q);
  /// Appends a fixed CX.
  void add_cx(int control, int target);
  /// Appends the QSearch expansion block: CX(control, target) then a U3 on
  /// each of the two qubits.
  void add_qsearch_block(int control, int target);
  /// Appends the QFast generic two-qubit block: {U3 pair, CX} x3 followed by
  /// a final U3 pair — enough structure to express any SU(4) element.
  void add_generic_block(int a, int b);

  /// U3 layer on every qubit (the root of a QSearch search).
  static TemplateCircuit u3_layer(int num_qubits);

  /// Builds the full unitary for the given parameter vector into `out`
  /// (resized if needed). params.size() must equal num_params().
  void unitary(const std::vector<double>& params, linalg::Matrix& out) const;

  /// Concrete circuit with the parameters bound.
  ir::QuantumCircuit instantiate(const std::vector<double>& params) const;

  /// Reasonable starting parameters: zero angles (U3 = identity).
  std::vector<double> identity_params() const;

  /// Order-dependent structural hash (op kinds and operands; parameters are
  /// free, so they do not contribute). Keys the synthesis cache.
  std::uint64_t fingerprint() const;

 private:
  int num_qubits_;
  int num_u3_ = 0;
  std::size_t num_cx_ = 0;
  std::vector<Op> ops_;
};

}  // namespace qc::synth
