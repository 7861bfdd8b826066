// Inline bodies of the synthesis hot path and their once-per-evaluation ISA
// dispatch. Internal to qc_synth: template.cpp, cost.cpp and qfactor.cpp
// include it; nothing outside them should.
//
// Each dispatched entry point — the public rowops, TemplateCircuit::unitary,
// HsCost::operator() and its gradient sweep, fidelity_gap, boundary_gap,
// boundary_gap_gradient and qfactor_environment — has one source body, an
// always-inline function. dispatch<Body>(args...)
// instantiates that body twice: inline at the baseline ISA, and inside a
// target("avx2") trampoline, so the row and column kernels the body calls are
// inlined into each copy and compiled for its ISA. The copy is chosen once per
// call from linalg::active_simd_isa(), so QAPPROX_SIMD=scalar and
// linalg::force_simd_isa() reach the baseline copy exactly as they reach the
// scalar gate kernels.
//
// Both copies compute the same bits. The trampoline enables AVX2 but not FMA,
// and qc_synth is built with -ffp-contract=off, so no multiply-add is fused on
// any host (CI disassembles libqc_synth.a to check). GCC reassociates floating
// point only under -ffast-math, so a vectorized element-wise loop performs
// each lane's IEEE operations in the scalar order, and the loop vectorizer
// leaves floating-point reductions sequential: the trace product stays a
// scalar loop. The 2x2 environments of the gradient sweep and of QFactor are
// eight independent sums, so accumulate_environment holds them explicitly,
// one GCC-vector lane per sum; each lane still adds its own products in the
// scalar order, with the sign of the cross terms applied by exact
// multiplications by ±1 (see there). AVX2 buys wider and three-operand
// vector forms of the same operations, never different ones.
// Only x86-64 has a second copy; aarch64's baseline already has 2-wide NEON
// doubles.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "synth/template.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QAPPROX_SYNTH_AVX2 1
#else
#define QAPPROX_SYNTH_AVX2 0
#endif

#define QAPPROX_SYNTH_INLINE inline __attribute__((always_inline))

namespace qc::synth::detail {

#if QAPPROX_SYNTH_AVX2
template <auto Body, class... Args>
__attribute__((target("avx2"))) decltype(auto) run_avx2(Args&&... args) {
  return Body(std::forward<Args>(args)...);
}
#endif

/// Runs Body(args...) through its AVX2 copy when the active SIMD ISA is AVX2,
/// and through its baseline copy otherwise.
template <auto Body, class... Args>
QAPPROX_SYNTH_INLINE decltype(auto) dispatch(Args&&... args) {
#if QAPPROX_SYNTH_AVX2
  if (linalg::active_simd_isa() == linalg::SimdIsa::Avx2)
    return run_avx2<Body>(std::forward<Args>(args)...);
#endif
  return Body(std::forward<Args>(args)...);
}

// The U3 kernels write each complex product out on the interleaved doubles
// (the array view of std::complex<double> that [complex.numbers] guarantees)
// as (ar*br - ai*bi, ar*bi + ai*br): the expression GCC emits for a
// std::complex<double> product, minus the NaN-recovery branch that keeps the
// loops from vectorizing. For finite inputs the results are bit-identical to
// the complex-typed loops.

/// m := embed(U3 on q) * m  (row mixing).
QAPPROX_SYNTH_INLINE void left_u3(linalg::Matrix& m, int q, const U3Entries& g) {
  const std::size_t dim = m.rows();
  const std::size_t stride = 2 * m.cols();
  double* data = reinterpret_cast<double*>(m.data());
  const double g00r = g.g00.real(), g00i = g.g00.imag();
  const double g01r = g.g01.real(), g01i = g.g01.imag();
  const double g10r = g.g10.real(), g10i = g.g10.imag();
  const double g11r = g.g11.real(), g11i = g.g11.imag();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim; ++r) {
    if (r & bit) continue;
    double* row0 = data + r * stride;
    double* row1 = data + (r | bit) * stride;
    for (std::size_t k = 0; k < stride; k += 2) {
      const double v0r = row0[k], v0i = row0[k + 1];
      const double v1r = row1[k], v1i = row1[k + 1];
      // g00 * v0 + g01 * v1 and g10 * v0 + g11 * v1.
      row0[k] = (g00r * v0r - g00i * v0i) + (g01r * v1r - g01i * v1i);
      row0[k + 1] = (g00r * v0i + g00i * v0r) + (g01r * v1i + g01i * v1r);
      row1[k] = (g10r * v0r - g10i * v0i) + (g11r * v1r - g11i * v1i);
      row1[k + 1] = (g10r * v0i + g10i * v0r) + (g11r * v1i + g11i * v1r);
    }
  }
}

/// m := embed(CX) * m  (row swaps in the control=1 half-space).
QAPPROX_SYNTH_INLINE void left_cx(linalg::Matrix& m, int control, int target) {
  const std::size_t dim = m.rows();
  const std::size_t cols = m.cols();
  linalg::cplx* data = m.data();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t r = 0; r < dim; ++r) {
    if (!(r & cbit) || (r & tbit)) continue;
    linalg::cplx* row0 = data + r * cols;
    linalg::cplx* row1 = data + (r | tbit) * cols;
    for (std::size_t col = 0; col < cols; ++col) std::swap(row0[col], row1[col]);
  }
}

/// m := m * embed(U3 on q)  (column mixing).
QAPPROX_SYNTH_INLINE void right_u3(linalg::Matrix& m, int q, const U3Entries& g) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  double* data = reinterpret_cast<double*>(m.data());
  const double g00r = g.g00.real(), g00i = g.g00.imag();
  const double g01r = g.g01.real(), g01i = g.g01.imag();
  const double g10r = g.g10.real(), g10i = g.g10.imag();
  const double g11r = g.g11.real(), g11i = g.g11.imag();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = data + 2 * r * cols;
    // Column pairs (c, c | bit) in runs of `bit` consecutive columns.
    for (std::size_t base = 0; base < cols; base += 2 * bit) {
      double* col0 = row + 2 * base;
      double* col1 = col0 + 2 * bit;
      for (std::size_t k = 0; k < 2 * bit; k += 2) {
        const double v0r = col0[k], v0i = col0[k + 1];
        const double v1r = col1[k], v1i = col1[k + 1];
        // (M G)(r, c0) = M(r, c0) g00 + M(r, c1) g10; columns mix through G's rows.
        col0[k] = (v0r * g00r - v0i * g00i) + (v1r * g10r - v1i * g10i);
        col0[k + 1] = (v0r * g00i + v0i * g00r) + (v1r * g10i + v1i * g10r);
        col1[k] = (v0r * g01r - v0i * g01i) + (v1r * g11r - v1i * g11i);
        col1[k + 1] = (v0r * g01i + v0i * g01r) + (v1r * g11i + v1i * g11r);
      }
    }
  }
}

/// m := m * embed(CX)  (column swaps; CX is its own transpose/inverse).
QAPPROX_SYNTH_INLINE void right_cx(linalg::Matrix& m, int control, int target) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  linalg::cplx* data = m.data();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t r = 0; r < rows; ++r) {
    linalg::cplx* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(c & cbit) || (c & tbit)) continue;
      std::swap(row[c], row[c | tbit]);
    }
  }
}

/// out := the template's unitary at `params` (resized if needed).
QAPPROX_SYNTH_INLINE void unitary(const TemplateCircuit& tpl, const std::vector<double>& params,
                                  linalg::Matrix& out) {
  QC_CHECK(params.size() == static_cast<std::size_t>(tpl.num_params()));
  const std::size_t dim = std::size_t{1} << tpl.num_qubits();
  if (out.rows() != dim || out.cols() != dim) out = linalg::Matrix(dim, dim);
  linalg::cplx* m = out.data();
  for (std::size_t i = 0; i < dim * dim; ++i) m[i] = linalg::cplx{0.0, 0.0};
  for (std::size_t i = 0; i < dim; ++i) m[i * dim + i] = linalg::cplx{1.0, 0.0};

  for (const TemplateCircuit::Op& op : tpl.ops()) {
    if (op.is_cx) {
      left_cx(out, op.a, op.b);
    } else {
      left_u3(out, op.a,
              u3_entries(params[op.param_offset], params[op.param_offset + 1],
                         params[op.param_offset + 2]));
    }
  }
}

/// Two and four doubles as GCC vectors: element-wise operators act lane by
/// lane in IEEE double arithmetic, and a scalar operand is broadcast. Lanes4
/// is one AVX register in the AVX2 copy and two SSE2 registers in the
/// baseline copy.
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Lanes4 __attribute__((vector_size(4 * sizeof(double))));

/// The running sums of a one-qubit slot's 2x2 environment E(a,b), one lane
/// per double: row0 = [e00r e00i e01r e01i], row1 = [e10r e10i e11r e11i].
struct Environment {
  Lanes4 row0 = {0.0, 0.0, 0.0, 0.0};
  Lanes4 row1 = {0.0, 0.0, 0.0, 0.0};
};

/// env += Σ_{j < count} (l0[j]·S(j,c0), l0[j]·S(j,c1), l1[j]·S(j,c0),
/// l1[j]·S(j,c1)) for the interleaved rows l0 and l1 of L and the columns
/// c0 and c1 of S, whose row j starts at s + j·stride (doubles).
///
/// Each complex product a·b is (ar·br - ai·bi, ar·bi + ai·br), the
/// expression GCC emits for a std::complex<double> product minus its
/// NaN-recovery branch. A step computes, per row,
///   acc += ar·[br0 bi0 br1 bi1] + ai·([bi0 br0 bi1 br1]·[-1 +1 -1 +1]).
/// (-1)·y is exact, x·(-y) = -(x·y) because round-to-nearest is symmetric,
/// and x + (-y) is x - y, so each lane performs one scalar accumulator's
/// IEEE operations in the scalar order: the sums are bit-identical to eight
/// scalar accumulators, in either copy.
QAPPROX_SYNTH_INLINE void accumulate_environment(const double* l0, const double* l1,
                                                 const double* s, std::size_t stride,
                                                 std::size_t c0, std::size_t c1,
                                                 std::size_t count, Environment& env) {
  const Lanes4 sign = {-1.0, 1.0, -1.0, 1.0};
  Lanes4 acc0 = env.row0, acc1 = env.row1;
  for (std::size_t j = 0; j < count; ++j) {
    const double* srow = s + j * stride;
    Lanes2 b0, b1;
    std::memcpy(&b0, srow + 2 * c0, sizeof b0);
    std::memcpy(&b1, srow + 2 * c1, sizeof b1);
    const Lanes4 b = __builtin_shufflevector(b0, b1, 0, 1, 2, 3);
    const Lanes4 b_signed = __builtin_shufflevector(b0, b1, 1, 0, 3, 2) * sign;
    acc0 += l0[2 * j] * b + l0[2 * j + 1] * b_signed;
    acc1 += l1[2 * j] * b + l1[2 * j + 1] * b_signed;
  }
  env.row0 = acc0;
  env.row1 = acc1;
}

/// 1 - min(|Tr(T† V)| / d, 1).
QAPPROX_SYNTH_INLINE double fidelity_gap(const linalg::Matrix& target, const linalg::Matrix& v) {
  // acc += conj(t) * v, the product written out on the interleaved doubles.
  const double* t = reinterpret_cast<const double*>(target.data());
  const double* w = reinterpret_cast<const double*>(v.data());
  const std::size_t n = 2 * target.rows() * target.cols();
  double acc_r = 0.0, acc_i = 0.0;
  for (std::size_t k = 0; k < n; k += 2) {
    const double tr = t[k], ti = -t[k + 1];
    const double vr = w[k], vi = w[k + 1];
    acc_r += tr * vr - ti * vi;
    acc_i += tr * vi + ti * vr;
  }
  const double fid = std::abs(linalg::cplx{acc_r, acc_i}) / static_cast<double>(target.rows());
  return 1.0 - std::min(fid, 1.0);
}

}  // namespace qc::synth::detail
