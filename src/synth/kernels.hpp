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
// any host (CI disassembles libqc_synth.a to check). The inner loops are
// written in explicit GCC-vector lanes: the U3 row and column kernels mix
// two complex doubles per four-lane vector (Mix, RunMixer), and the 2x2
// environments of the gradient sweep and of QFactor hold their eight sums
// one lane per sum (accumulate_environment). Each lane performs one scalar
// expression's IEEE operations in the scalar order, with the signs of the
// cross terms applied by exact negations (see Mix), so the lanes compute
// the bits of the complex-typed loops the tests keep as oracles. What is left
// to the loop vectorizer is the fidelity-gap trace product; GCC reassociates
// floating point only under -ffast-math, so it vectorizes the products and
// still adds them in order. AVX2 buys wider and three-operand vector forms of
// the same operations, never different ones.
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

/// Two and four doubles as GCC vectors: element-wise operators act lane by
/// lane in IEEE double arithmetic, and a scalar operand is broadcast. Lanes4
/// is one AVX register in the AVX2 copy and two SSE2 registers in the
/// baseline copy. Helpers take and return them by reference only: a 32-byte
/// vector passed by value has a different ABI in the two copies (-Wpsabi).
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Lanes4 __attribute__((vector_size(4 * sizeof(double))));

/// Entries of a 2x2 complex mix in lane form, for vectors v and w of two
/// interleaved complex doubles each:
///   out := (vr·v + vi·swap(v)) + (wr·w + wi·swap(w)),
/// where swap exchanges the real and imaginary part of each complex. The
/// output's first complex (lanes 0-1) takes v_lo·v + w_lo·w, its second
/// (lanes 2-3) v_hi·v + w_hi·w. The imaginary parts are stored times
/// [-1 +1 -1 +1], so lane 0 is ar·vr + (-ai)·vi and lane 1 is ar·vi + ai·vr:
/// the complex product a·v written out on the interleaved doubles,
/// (ar·vr - ai·vi, ar·vi + ai·vr), the expression GCC emits for a
/// std::complex<double> product minus its NaN-recovery branch. Negation is
/// exact, (-x)·y = -(x·y) because round-to-nearest is symmetric, x + (-y) is
/// x - y, and IEEE products and sums commute, so each lane performs the
/// scalar expression's operations, in its order: for finite inputs the bits
/// of the complex-typed loops.
struct Mix {
  QAPPROX_SYNTH_INLINE Mix(linalg::cplx v_lo, linalg::cplx v_hi, linalg::cplx w_lo,
                           linalg::cplx w_hi)
      : vr{v_lo.real(), v_lo.real(), v_hi.real(), v_hi.real()},
        vi{-v_lo.imag(), v_lo.imag(), -v_hi.imag(), v_hi.imag()},
        wr{w_lo.real(), w_lo.real(), w_hi.real(), w_hi.real()},
        wi{-w_lo.imag(), w_lo.imag(), -w_hi.imag(), w_hi.imag()} {}

  QAPPROX_SYNTH_INLINE void apply(const Lanes4& v, const Lanes4& w, Lanes4& out) const {
    out = (vr * v + vi * __builtin_shufflevector(v, v, 1, 0, 3, 2)) +
          (wr * w + wi * __builtin_shufflevector(w, w, 1, 0, 3, 2));
  }

  Lanes4 vr, vi, wr, wi;
};

/// The one-qubit mix of the U3 row and column kernels: for every complex
/// double k of two runs p0 and p1 of `len` interleaved doubles,
///   p0[k] := a·p0[k] + b·p1[k],   p1[k] := c·p0[k] + d·p1[k].
/// Runs go two complexes per vector, through one Mix per output run (`top`,
/// `bottom`). A run length that four doubles do not divide (a row of odd
/// width) leaves one complex, which goes as [p0[k] p0[k]] and [p1[k] p1[k]]
/// through `both`, whose two halves are the two outputs.
struct RunMixer {
  QAPPROX_SYNTH_INLINE RunMixer(linalg::cplx a, linalg::cplx b, linalg::cplx c, linalg::cplx d)
      : top(a, a, b, b), bottom(c, c, d, d), both(a, c, b, d) {}

  QAPPROX_SYNTH_INLINE void apply(double* p0, double* p1, std::size_t len) const {
    std::size_t k = 0;
    for (; k + 4 <= len; k += 4) {
      Lanes4 v, w, out0, out1;
      std::memcpy(&v, p0 + k, sizeof v);
      std::memcpy(&w, p1 + k, sizeof w);
      top.apply(v, w, out0);
      bottom.apply(v, w, out1);
      std::memcpy(p0 + k, &out0, sizeof out0);
      std::memcpy(p1 + k, &out1, sizeof out1);
    }
    if (k == len) return;
    Lanes2 v2, w2;
    std::memcpy(&v2, p0 + k, sizeof v2);
    std::memcpy(&w2, p1 + k, sizeof w2);
    const Lanes4 v = __builtin_shufflevector(v2, v2, 0, 1, 0, 1);
    const Lanes4 w = __builtin_shufflevector(w2, w2, 0, 1, 0, 1);
    Lanes4 out;
    both.apply(v, w, out);
    const Lanes2 out0 = __builtin_shufflevector(out, out, 0, 1);
    const Lanes2 out1 = __builtin_shufflevector(out, out, 2, 3);
    std::memcpy(p0 + k, &out0, sizeof out0);
    std::memcpy(p1 + k, &out1, sizeof out1);
  }

  Mix top, bottom, both;
};

/// m := embed(U3 on q) * m  (row mixing). The rows r and r | bit pair up in
/// blocks of 2·bit rows: rows base..base+bit-1 are one contiguous run and
/// the rows bit below them its partner.
QAPPROX_SYNTH_INLINE void left_u3(linalg::Matrix& m, int q, const U3Entries& g) {
  const std::size_t stride = 2 * m.cols();
  double* data = reinterpret_cast<double*>(m.data());
  const std::size_t bit = std::size_t{1} << q;
  const std::size_t run = bit * stride;
  const RunMixer mixer(g.g00, g.g01, g.g10, g.g11);
  for (std::size_t base = 0; base < m.rows(); base += 2 * bit) {
    double* p0 = data + base * stride;
    mixer.apply(p0, p0 + run, run);
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

/// m := m * embed(U3 on q)  (column mixing): (M G)(r, c0) = M(r, c0) g00 +
/// M(r, c1) g10, so the columns mix through G's transpose. The columns c and
/// c | bit pair up in runs of `bit`; the row length is a multiple of 2·bit,
/// so the runs continue across rows and the matrix is one long row.
QAPPROX_SYNTH_INLINE void right_u3(linalg::Matrix& m, int q, const U3Entries& g) {
  const std::size_t total = 2 * m.rows() * m.cols();
  double* data = reinterpret_cast<double*>(m.data());
  const std::size_t run = 2 * (std::size_t{1} << q);
  const RunMixer mixer(g.g00, g.g10, g.g01, g.g11);
  if (q == 0) {
    // Adjacent columns: each pair is one vector [v0 v1].
    for (std::size_t k = 0; k < total; k += 4) {
      Lanes4 pair, out;
      std::memcpy(&pair, data + k, sizeof pair);
      const Lanes4 v = __builtin_shufflevector(pair, pair, 0, 1, 0, 1);
      const Lanes4 w = __builtin_shufflevector(pair, pair, 2, 3, 2, 3);
      mixer.both.apply(v, w, out);
      std::memcpy(data + k, &out, sizeof out);
    }
    return;
  }
  for (std::size_t base = 0; base < total; base += 2 * run) {
    double* p0 = data + base;
    mixer.apply(p0, p0 + run, run);
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

/// out := the template's unitary (resized if needed), with the entries of
/// each U3 op taken from entries_of(op).
template <class EntriesOf>
QAPPROX_SYNTH_INLINE void build_unitary(const TemplateCircuit& tpl, const EntriesOf& entries_of,
                                        linalg::Matrix& out) {
  const std::size_t dim = std::size_t{1} << tpl.num_qubits();
  if (out.rows() != dim || out.cols() != dim) out = linalg::Matrix(dim, dim);
  linalg::cplx* m = out.data();
  for (std::size_t i = 0; i < dim * dim; ++i) m[i] = linalg::cplx{0.0, 0.0};
  for (std::size_t i = 0; i < dim; ++i) m[i * dim + i] = linalg::cplx{1.0, 0.0};

  for (const TemplateCircuit::Op& op : tpl.ops()) {
    if (op.is_cx) {
      left_cx(out, op.a, op.b);
    } else {
      left_u3(out, op.a, entries_of(op));
    }
  }
}

/// out := the template's unitary at `params` (resized if needed).
QAPPROX_SYNTH_INLINE void unitary(const TemplateCircuit& tpl, const std::vector<double>& params,
                                  linalg::Matrix& out) {
  QC_CHECK(params.size() == static_cast<std::size_t>(tpl.num_params()));
  build_unitary(
      tpl,
      [&params](const TemplateCircuit::Op& op) {
        return u3_entries(params[op.param_offset], params[op.param_offset + 1],
                          params[op.param_offset + 2]);
      },
      out);
}

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
