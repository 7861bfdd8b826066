// Unit + property tests for qc::linalg — matrices, embedding kernels, expm.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/embed.hpp"
#include "linalg/expm.hpp"
#include "linalg/factories.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "sim/density_matrix.hpp"

namespace qc::linalg {
namespace {

constexpr double kTol = 1e-10;

TEST(Matrix, IdentityAndTrace) {
  const Matrix eye = Matrix::identity(4);
  EXPECT_EQ(eye.trace(), (cplx{4.0, 0.0}));
  EXPECT_TRUE(eye.is_unitary());
  EXPECT_TRUE(eye.is_hermitian());
}

TEST(Matrix, ArithmeticRoundTrip) {
  Matrix a(2, 2, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  Matrix b = a * cplx{2.0, 0.0};
  Matrix c = b - a;
  EXPECT_NEAR(c.max_abs_diff(a), 0.0, kTol);
  EXPECT_NEAR((a + a).max_abs_diff(b), 0.0, kTol);
}

TEST(Matrix, GemmMatchesHandComputation) {
  Matrix a(2, 3, {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}});
  Matrix b(3, 2, {{7, 0}, {8, 0}, {9, 0}, {10, 0}, {11, 0}, {12, 0}});
  Matrix c = a * b;
  EXPECT_NEAR(c(0, 0).real(), 58.0, kTol);
  EXPECT_NEAR(c(0, 1).real(), 64.0, kTol);
  EXPECT_NEAR(c(1, 0).real(), 139.0, kTol);
  EXPECT_NEAR(c(1, 1).real(), 154.0, kTol);
}

TEST(Matrix, GemmDimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a * b, common::Error);
}

TEST(Matrix, AdjointConjugatesAndTransposes) {
  Matrix a(2, 2, {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  Matrix ad = a.adjoint();
  EXPECT_EQ(ad(0, 1), (cplx{5, -6}));
  EXPECT_EQ(ad(1, 0), (cplx{3, -4}));
}

TEST(Matrix, ApplyMatchesGemm) {
  common::Rng rng(5);
  const Matrix u = random_unitary(8, rng);
  std::vector<cplx> x(8);
  for (auto& v : x) v = cplx{rng.normal(), rng.normal()};
  const auto y = u.apply(x);
  for (std::size_t r = 0; r < 8; ++r) {
    cplx expect{0, 0};
    for (std::size_t c = 0; c < 8; ++c) expect += u(r, c) * x[c];
    EXPECT_NEAR(std::abs(y[r] - expect), 0.0, 1e-9);
  }
}

TEST(Paulis, AlgebraRelations) {
  const Matrix x = pauli_x(), y = pauli_y(), z = pauli_z();
  EXPECT_NEAR((x * x).max_abs_diff(Matrix::identity(2)), 0.0, kTol);
  EXPECT_NEAR((y * y).max_abs_diff(Matrix::identity(2)), 0.0, kTol);
  EXPECT_NEAR((z * z).max_abs_diff(Matrix::identity(2)), 0.0, kTol);
  // XY = iZ
  EXPECT_NEAR((x * y).max_abs_diff(z * cplx{0.0, 1.0}), 0.0, kTol);
}

TEST(Paulis, StringBuildsKron) {
  const Matrix zx = pauli_string("ZX");
  EXPECT_NEAR(zx.max_abs_diff(kron(pauli_z(), pauli_x())), 0.0, kTol);
  EXPECT_THROW(pauli_string("Q"), common::Error);
}

TEST(Kron, DimensionsAndValues) {
  const Matrix a(2, 2, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  const Matrix k = kron(a, Matrix::identity(2));
  EXPECT_EQ(k.rows(), 4u);
  EXPECT_EQ(k(0, 0), (cplx{1, 0}));
  EXPECT_EQ(k(1, 1), (cplx{1, 0}));
  EXPECT_EQ(k(2, 0), (cplx{3, 0}));
}

TEST(RandomUnitary, IsUnitaryAcrossDims) {
  common::Rng rng(21);
  for (std::size_t dim : {2u, 4u, 8u, 16u}) {
    const Matrix u = random_unitary(dim, rng);
    EXPECT_TRUE(u.is_unitary(1e-9)) << "dim " << dim;
  }
}

TEST(RandomHermitian, IsHermitian) {
  common::Rng rng(22);
  EXPECT_TRUE(random_hermitian(8, rng).is_hermitian(1e-12));
}

// ---- embed ---------------------------------------------------------------

TEST(Embed, SingleQubitMatchesKron) {
  // X on qubit 0 of 2 qubits = I (x) X in the |q1 q0> kron ordering.
  const Matrix e = embed(pauli_x(), {0}, 2);
  EXPECT_NEAR(e.max_abs_diff(kron(pauli_i(), pauli_x())), 0.0, kTol);
  const Matrix e1 = embed(pauli_x(), {1}, 2);
  EXPECT_NEAR(e1.max_abs_diff(kron(pauli_x(), pauli_i())), 0.0, kTol);
}

TEST(Embed, TwoQubitOrderingMatters) {
  common::Rng rng(31);
  const Matrix op = random_unitary(4, rng);
  const Matrix e01 = embed(op, {0, 1}, 3);
  const Matrix e10 = embed(op, {1, 0}, 3);
  // Swapping operand order conjugates by SWAP; generically different.
  EXPECT_GT(e01.max_abs_diff(e10), 1e-3);
}

TEST(Embed, RejectsBadArguments) {
  EXPECT_THROW(embed(pauli_x(), {0, 1}, 2), common::Error);   // dim mismatch
  EXPECT_THROW(embed(pauli_x(), {3}, 2), common::Error);      // out of range
  EXPECT_THROW(embed(Matrix::identity(4), {1, 1}, 3), common::Error);  // dup
}

TEST(Embed, ApplyGateMatchesEmbeddedMatrix) {
  common::Rng rng(33);
  for (int trial = 0; trial < 6; ++trial) {
    const Matrix op = random_unitary(4, rng);
    const std::vector<int> qubits = {static_cast<int>(rng.uniform_int(3)),
                                     3};  // distinct (0..2, 3)
    std::vector<cplx> state(16);
    for (auto& v : state) v = cplx{rng.normal(), rng.normal()};
    auto expect = embed(op, qubits, 4).apply(state);
    apply_gate_inplace(state, op, qubits);
    for (std::size_t i = 0; i < state.size(); ++i)
      ASSERT_NEAR(std::abs(state[i] - expect[i]), 0.0, 1e-9);
  }
}

TEST(Embed, LeftApplyMatchesGemm) {
  common::Rng rng(34);
  const Matrix op = random_unitary(2, rng);
  Matrix u = random_unitary(8, rng);
  const Matrix expect = embed(op, {1}, 3) * u;
  left_apply_inplace(u, op, {1});
  EXPECT_NEAR(u.max_abs_diff(expect), 0.0, 1e-9);
}

TEST(Embed, RightApplyMatchesGemm) {
  common::Rng rng(35);
  const Matrix op = random_unitary(4, rng);
  Matrix u = random_unitary(8, rng);
  const Matrix expect = u * embed(op, {0, 2}, 3);
  right_apply_inplace(u, op, {0, 2});
  EXPECT_NEAR(u.max_abs_diff(expect), 0.0, 1e-9);
}

// ---- expm / solve ----------------------------------------------------------

TEST(Solve, RecoversKnownSolution) {
  common::Rng rng(41);
  const Matrix a = random_unitary(6, rng);
  const Matrix x_true = random_unitary(6, rng);
  const Matrix b = a * x_true;
  const Matrix x = solve(a, b);
  EXPECT_NEAR(x.max_abs_diff(x_true), 0.0, 1e-9);
}

TEST(Solve, SingularThrows) {
  Matrix a(2, 2);  // zero matrix
  EXPECT_THROW(solve(a, Matrix::identity(2)), common::Error);
}

TEST(Expm, ZeroGivesIdentity) {
  EXPECT_NEAR(expm(Matrix(4, 4)).max_abs_diff(Matrix::identity(4)), 0.0, 1e-12);
}

TEST(Expm, DiagonalCase) {
  Matrix d(2, 2);
  d(0, 0) = cplx{1.0, 0.0};
  d(1, 1) = cplx{0.0, 2.0};
  const Matrix e = expm(d);
  EXPECT_NEAR(std::abs(e(0, 0) - std::exp(cplx{1.0, 0.0})), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(e(1, 1) - std::exp(cplx{0.0, 2.0})), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(e(0, 1)), 0.0, 1e-12);
}

TEST(Expm, PauliRotationClosedForm) {
  // exp(-i t X) = cos t I - i sin t X.
  const double t = 0.7;
  const Matrix e = expm(pauli_x() * cplx{0.0, -t});
  Matrix expect = Matrix::identity(2) * cplx{std::cos(t), 0.0};
  expect += pauli_x() * cplx{0.0, -std::sin(t)};
  EXPECT_NEAR(e.max_abs_diff(expect), 0.0, 1e-12);
}

TEST(Expm, LargeNormUsesScaling) {
  // Norm far above the Pade threshold exercises squaring.
  const double t = 40.0;
  const Matrix e = expm(pauli_y() * cplx{0.0, -t});
  Matrix expect = Matrix::identity(2) * cplx{std::cos(t), 0.0};
  expect += pauli_y() * cplx{0.0, -std::sin(t)};
  EXPECT_NEAR(e.max_abs_diff(expect), 0.0, 1e-9);
}

TEST(Expm, HermitianPropagatorIsUnitary) {
  common::Rng rng(51);
  const Matrix h = random_hermitian(8, rng);
  const Matrix u = expm_hermitian_propagator(h, 0.37);
  EXPECT_TRUE(u.is_unitary(1e-9));
}

TEST(Expm, PropagatorComposes) {
  common::Rng rng(52);
  const Matrix h = random_hermitian(4, rng);
  const Matrix u1 = expm_hermitian_propagator(h, 0.2);
  const Matrix u2 = expm_hermitian_propagator(h, 0.3);
  const Matrix u3 = expm_hermitian_propagator(h, 0.5);
  EXPECT_NEAR((u2 * u1).max_abs_diff(u3), 0.0, 1e-9);
}

TEST(Expm, RejectsNonHermitianPropagator) {
  Matrix m(2, 2, {{0, 0}, {1, 0}, {0, 0}, {0, 0}});
  EXPECT_THROW(expm_hermitian_propagator(m, 1.0), common::Error);
}

TEST(VectorOps, InnerAndNorm) {
  std::vector<cplx> x = {{1, 0}, {0, 1}};
  std::vector<cplx> y = {{0, 1}, {1, 0}};
  EXPECT_NEAR(norm(x), std::sqrt(2.0), kTol);
  // <x|y> = conj(1)*i + conj(i)*1 = i - i = 0.
  EXPECT_NEAR(std::abs(inner(x, y)), 0.0, kTol);
}

// ---- specialized kernels ---------------------------------------------------

namespace kernel_test {

std::vector<cplx> random_state(int n, common::Rng& rng) {
  std::vector<cplx> state(std::size_t{1} << n);
  for (auto& v : state) v = cplx{rng.normal(), rng.normal()};
  return state;
}

Matrix random_diagonal(std::size_t dim, common::Rng& rng) {
  Matrix m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    m(i, i) = cplx{rng.normal(), rng.normal()};
  return m;
}

/// Random 4x4 permutation-phase matrix (one nonzero phase per row/column),
/// the CX/SWAP/CY shape.
Matrix random_perm_phase(common::Rng& rng) {
  std::vector<std::size_t> perm = {0, 1, 2, 3};
  for (std::size_t i = 3; i > 0; --i)
    std::swap(perm[i], perm[rng.uniform_int(i + 1)]);
  Matrix m(4, 4);
  for (std::size_t c = 0; c < 4; ++c)
    m(perm[c], c) = std::polar(1.0, rng.uniform() * 6.28318);
  return m;
}

std::vector<int> distinct_qubits(int n, int k, common::Rng& rng) {
  std::vector<int> qs;
  while (static_cast<int>(qs.size()) < k) {
    const int q = static_cast<int>(rng.uniform_int(static_cast<std::size_t>(n)));
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  }
  return qs;
}

/// Applies `op` via the dispatch layer and via the generic path and requires
/// the results to agree bit-for-bit when the active configuration guarantees
/// it (scalar ISA, no compile-time FMA contraction — kernels_bit_exact()).
/// The vector ISA and FMA builds reassociate, so there the
/// check relaxes to the 1e-12 bound. Threaded slices write disjoint
/// amplitudes at aligned boundaries, so threading never loosens the check.
void expect_matches_generic(const std::vector<cplx>& state, const Matrix& op,
                            const std::vector<int>& qubits,
                            const ApplyOptions& options) {
  std::vector<cplx> generic = state;
  apply_gate_inplace(generic, op, qubits);
  std::vector<cplx> fast = state;
  apply_operator(fast, op, qubits, options);
  const bool bit_identical = kernels_bit_exact();
  for (std::size_t i = 0; i < state.size(); ++i) {
    ASSERT_NEAR(std::abs(fast[i] - generic[i]), 0.0, 1e-12);
    if (bit_identical) {
      ASSERT_EQ(fast[i], generic[i]);
    }
  }
}

}  // namespace kernel_test

TEST(Kernels, ClassifyRecognizesEveryShape) {
  common::Rng rng(61);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(2, rng)),
            KernelKind::OneQDiag);
  EXPECT_EQ(classify_kernel(random_unitary(2, rng)), KernelKind::OneQGeneral);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(4, rng)),
            KernelKind::TwoQDiag);
  // A diagonal matrix is also permutation-phase; diagonal must win.
  Matrix cx(4, 4);
  cx(0, 0) = cx(2, 2) = cx(3, 1) = cx(1, 3) = cplx{1.0, 0.0};
  EXPECT_EQ(classify_kernel(cx), KernelKind::TwoQPermPhase);
  EXPECT_EQ(classify_kernel(random_unitary(4, rng)), KernelKind::TwoQGeneral);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(8, rng)),
            KernelKind::ThreeQDiag);
  EXPECT_EQ(classify_kernel(random_unitary(8, rng)),
            KernelKind::ThreeQGeneral);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(16, rng)),
            KernelKind::FourQDiag);
  EXPECT_EQ(classify_kernel(random_unitary(16, rng)),
            KernelKind::FourQGeneral);
  EXPECT_EQ(classify_kernel(random_unitary(32, rng)), KernelKind::GenericK);

  KernelCounts counts;
  counts.add(KernelKind::OneQDiag);
  counts.add(KernelKind::TwoQPermPhase);
  counts.add(KernelKind::TwoQPermPhase);
  counts.add(KernelKind::ThreeQGeneral);
  counts.add(KernelKind::FourQDiag);
  EXPECT_EQ(counts[KernelKind::OneQDiag], 1u);
  EXPECT_EQ(counts[KernelKind::TwoQPermPhase], 2u);
  EXPECT_EQ(counts[KernelKind::ThreeQGeneral], 1u);
  EXPECT_EQ(counts[KernelKind::FourQDiag], 1u);
  EXPECT_EQ(counts.total(), 5u);
}

TEST(Kernels, RandomizedEquivalenceAcrossWidthsAndShapes) {
  common::Rng rng(62);
  // parallel_threshold = 2 forces the sliced threaded dispatch on even the
  // smallest states; the default keeps them serial.
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 1; n <= 8; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto state = kernel_test::random_state(n, rng);
      for (const ApplyOptions& opts : {serial, threaded}) {
        const auto q1 = kernel_test::distinct_qubits(n, 1, rng);
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(2, rng),
                                            q1, opts);
        kernel_test::expect_matches_generic(state, random_unitary(2, rng), q1,
                                            opts);
        if (n < 2) continue;
        const auto q2 = kernel_test::distinct_qubits(n, 2, rng);
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(4, rng),
                                            q2, opts);
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_perm_phase(rng),
                                            q2, opts);
        kernel_test::expect_matches_generic(state, random_unitary(4, rng), q2,
                                            opts);
        if (n < 3) continue;
        // k = 3/4 hit the fused-block kernels (gather -> mat-vec -> scatter).
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(8, rng),
                                            kernel_test::distinct_qubits(n, 3, rng),
                                            opts);
        kernel_test::expect_matches_generic(state, random_unitary(8, rng),
                                            kernel_test::distinct_qubits(n, 3, rng),
                                            opts);
        if (n < 4) continue;
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(16, rng),
                                            kernel_test::distinct_qubits(n, 4, rng),
                                            opts);
        kernel_test::expect_matches_generic(state, random_unitary(16, rng),
                                            kernel_test::distinct_qubits(n, 4, rng),
                                            opts);
        if (n < 5) continue;
        // k = 5 exercises the GenericK fallback through the same entry point.
        kernel_test::expect_matches_generic(state, random_unitary(32, rng),
                                            kernel_test::distinct_qubits(n, 5, rng),
                                            opts);
      }
    }
  }
}

TEST(Kernels, LeftRightApplyMatchGenericAndGemm) {
  common::Rng rng(64);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 2; n <= 5; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int k = 1; k <= std::min(n, 4); ++k) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      for (const Matrix& op :
           {kernel_test::random_diagonal(std::size_t{1} << k, rng),
            random_unitary(std::size_t{1} << k, rng)}) {
        const Matrix u = random_unitary(dim, rng);
        const Matrix e = embed(op, qs, n);
        for (const ApplyOptions& opts : {serial, threaded}) {
          Matrix left = u;
          left_apply(left, op, qs, opts);
          EXPECT_NEAR(left.max_abs_diff(e * u), 0.0, 1e-12);
          Matrix lgen = u;
          left_apply_inplace(lgen, op, qs);
          EXPECT_NEAR(left.max_abs_diff(lgen), 0.0, 1e-12);

          Matrix right = u;
          right_apply(right, op, qs, opts);
          EXPECT_NEAR(right.max_abs_diff(u * e), 0.0, 1e-12);
          Matrix rgen = u;
          right_apply_inplace(rgen, op, qs);
          EXPECT_NEAR(right.max_abs_diff(rgen), 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(Kernels, PermPhaseLeftApplyMatchesEmbeddedGemm) {
  // CX/SWAP/CY row shuffles run s_twoq_perm on the row qubits of the doubled
  // register, in runs of whole rows; check them against the embedded product
  // directly.
  common::Rng rng(66);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 2; n <= 5; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto qs = kernel_test::distinct_qubits(n, 2, rng);
      // Re-draw past identity permutations, which classify as diagonal.
      Matrix op = kernel_test::random_perm_phase(rng);
      while (classify_kernel(op) != KernelKind::TwoQPermPhase)
        op = kernel_test::random_perm_phase(rng);
      const Matrix u = random_unitary(std::size_t{1} << n, rng);
      const Matrix e = embed(op, qs, n);
      for (const ApplyOptions& opts : {serial, threaded}) {
        Matrix left = u;
        left_apply(left, op, qs, opts);
        EXPECT_NEAR(left.max_abs_diff(e * u), 0.0, 1e-12);
      }
    }
  }
}

// ---- planned entry points --------------------------------------------------

namespace plan_test {

/// One operator of every kind the planned entry points serve: diagonal and
/// dense on 1-4 qubits, the 2q permutation-phase shapes (random phases, unit
/// phases on a 3-cycle, the pure swap CX) and a 5-qubit generic operator.
std::vector<Matrix> operators_of_every_kind(common::Rng& rng) {
  std::vector<Matrix> ops;
  for (std::size_t sub : {2u, 4u, 8u, 16u}) {
    ops.push_back(kernel_test::random_diagonal(sub, rng));
    ops.push_back(random_unitary(sub, rng));
  }
  Matrix phased = kernel_test::random_perm_phase(rng);
  while (classify_kernel(phased) != KernelKind::TwoQPermPhase)
    phased = kernel_test::random_perm_phase(rng);
  ops.push_back(phased);
  Matrix cycle(4, 4);  // |0> -> |1> -> |2> -> |0>, unit phases, not a swap
  cycle(1, 0) = cycle(2, 1) = cycle(0, 2) = cycle(3, 3) = cplx{1.0, 0.0};
  ops.push_back(cycle);
  Matrix cx(4, 4);
  cx(0, 0) = cx(2, 2) = cx(3, 1) = cx(1, 3) = cplx{1.0, 0.0};
  ops.push_back(cx);
  ops.push_back(random_unitary(32, rng));
  return ops;
}

int qubits_of(const Matrix& op) {
  return std::countr_zero(op.rows());
}

bool same_bytes(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(cplx)) == 0;
}

}  // namespace plan_test

TEST(Kernels, PlanCoversEveryKindAndPermutationFact) {
  common::Rng rng(69);
  const auto ops = plan_test::operators_of_every_kind(rng);
  for (const Matrix& op : ops) {
    const int k = plan_test::qubits_of(op);
    std::vector<int> qs(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) qs[i] = k - 1 - i;  // descending: sort matters
    const KernelPlan plan = plan_kernel(op, qs, std::size_t{1} << 6);
    EXPECT_EQ(plan.kind, classify_kernel(op));
    EXPECT_EQ(plan.log2_dim, 6);
    EXPECT_EQ(plan.k, k);
    // conj(op) and op† share op's zero pattern and unit entries.
    const KernelPlan adj = plan_kernel(op.adjoint(), qs, std::size_t{1} << 6);
    EXPECT_EQ(adj.kind, plan.kind);
    EXPECT_EQ(adj.pure_swap, plan.pure_swap);
    if (plan.kind == KernelKind::GenericK) continue;
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(plan.q[i], qs[i]);
      EXPECT_EQ(plan.spos[i], i);
    }
  }
  // The three permutation-phase operators: only CX is a pure swap.
  const std::size_t perm_first = 8;
  EXPECT_EQ(plan_kernel(ops[perm_first], {0, 1}, 4).kind, KernelKind::TwoQPermPhase);
  EXPECT_FALSE(plan_kernel(ops[perm_first + 1], {0, 1}, 4).pure_swap);
  const KernelPlan cx = plan_kernel(ops[perm_first + 2], {0, 1}, 4);
  EXPECT_TRUE(cx.pure_swap);
  EXPECT_EQ(cx.swap_a, 1);
  EXPECT_EQ(cx.swap_b, 3);
}

TEST(Kernels, PlannedApplyOperatorIsBitIdenticalToUnplanned) {
  // One plan per (operator, span), reused across many states; both sides run
  // the same kernel table, so equality holds at every ISA.
  common::Rng rng(70);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (const Matrix& op : plan_test::operators_of_every_kind(rng)) {
    const int k = plan_test::qubits_of(op);
    for (int n = k; n <= 6; ++n) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const KernelPlan plan = plan_kernel(op, qs, std::size_t{1} << n);
      for (int trial = 0; trial < 3; ++trial) {
        const auto state = kernel_test::random_state(n, rng);
        for (const ApplyOptions& opts : {serial, threaded}) {
          std::vector<cplx> planned = state;
          apply_operator(planned, op, qs, plan, opts);
          std::vector<cplx> unplanned = state;
          apply_operator(unplanned, op, qs, opts);
          ASSERT_TRUE(plan_test::same_bytes(planned, unplanned))
              << kernel_kind_name(plan.kind) << " n=" << n;
        }
      }
    }
  }
}

TEST(Kernels, OneBindingServesManyStates) {
  // A trajectory shot tree binds each noise operator once and applies the
  // binding to every branch state; that must equal a planned call per state.
  common::Rng rng(73);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (const Matrix& op : plan_test::operators_of_every_kind(rng)) {
    const int k = plan_test::qubits_of(op);
    for (int n = k; n <= 6; ++n) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const KernelPlan plan = plan_kernel(op, qs, std::size_t{1} << n);
      const BoundKernel bound = bind_kernel(plan, op, qs);
      for (int trial = 0; trial < 3; ++trial) {
        const auto state = kernel_test::random_state(n, rng);
        for (const ApplyOptions& opts : {serial, threaded}) {
          std::vector<cplx> reused = state;
          apply_bound(reused, bound, opts);
          std::vector<cplx> planned = state;
          apply_operator(planned, op, qs, plan, opts);
          ASSERT_TRUE(plan_test::same_bytes(reused, planned))
              << kernel_kind_name(plan.kind) << " n=" << n;
        }
      }
      // The binding keeps the plan's span check.
      auto wider = kernel_test::random_state(n + 1, rng);
      EXPECT_THROW(apply_bound(wider, bound), common::Error);
    }
  }
  // Binding checks the operator's shape against the plan.
  const Matrix op = random_unitary(4, rng);
  const KernelPlan plan = plan_kernel(op, {0, 2}, 8);
  EXPECT_THROW(bind_kernel(plan, random_unitary(2, rng), {0}), common::Error);
}

TEST(Kernels, PlannedMatrixAppliesAreBitIdenticalToExplicitAdjoints) {
  // left_apply with a plan vs without; the in-place conjugate right applies
  // vs the Matrix-only ones handed an explicit op.adjoint().
  common::Rng rng(71);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (const Matrix& op : plan_test::operators_of_every_kind(rng)) {
    const int k = plan_test::qubits_of(op);
    const Matrix adj = op.adjoint();
    for (int n = k; n <= 6; ++n) {
      const std::size_t dim = std::size_t{1} << n;
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const KernelPlan plan = plan_kernel(op, qs, dim);
      const Matrix u = random_unitary(dim, rng);
      for (const ApplyOptions& opts : {serial, threaded}) {
        SCOPED_TRACE(::testing::Message() << kernel_kind_name(plan.kind) << " n=" << n);
        Matrix planned = u;
        left_apply(planned, op, qs, plan, opts);
        Matrix unplanned = u;
        left_apply(unplanned, op, qs, opts);
        ASSERT_TRUE(plan_test::same_bytes(planned, unplanned));

        planned = u;
        right_apply_adjoint(planned, op, qs, plan, opts);
        Matrix explicit_adj = u;
        right_apply(explicit_adj, adj, qs, opts);
        ASSERT_TRUE(plan_test::same_bytes(planned, explicit_adj));
        // And the conjugate read is the adjoint's product, not just
        // self-consistent: the generic path agrees to rounding.
        Matrix generic = u;
        right_apply_inplace(generic, adj, qs);
        ASSERT_NEAR(planned.max_abs_diff(generic), 0.0, 1e-12);
      }
    }
  }
}

TEST(Kernels, ThreadedMatrixAppliesAreBitIdenticalToSerial) {
  // The matrix applies run the state-vector kernels over all dim^2 entries of
  // the doubled register; slicing that span across the pool must not move a
  // bit. parallel_threshold = 2 slices every span, the default none below
  // n = 7. DensityMatrix takes no apply options, so its Kraus update (serial
  // up to n = 6, sliced at n = 7) is checked against the sliced passes it is
  // made of.
  common::Rng rng(74);
  const SimdIsa prev = active_simd_isa();
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2}) {
    force_simd_isa(isa);
    for (const Matrix& op : plan_test::operators_of_every_kind(rng)) {
      const int k = plan_test::qubits_of(op);
      const std::size_t sub = std::size_t{1} << k;
      for (int n = k; n <= 7; ++n) {
        SCOPED_TRACE(::testing::Message()
                     << simd_isa_name(active_simd_isa()) << " "
                     << kernel_kind_name(classify_kernel(op)) << " n=" << n);
        const std::size_t dim = std::size_t{1} << n;
        const auto qs = kernel_test::distinct_qubits(n, k, rng);
        const KernelPlan plan = plan_kernel(op, qs, dim);
        const Matrix u = random_unitary(dim, rng);
        Matrix a = u, b = u;
        left_apply(a, op, qs, plan, serial);
        left_apply(b, op, qs, plan, threaded);
        ASSERT_TRUE(plan_test::same_bytes(a, b)) << "left_apply";
        a = u;
        b = u;
        right_apply_adjoint(a, op, qs, plan, serial);
        right_apply_adjoint(b, op, qs, plan, threaded);
        ASSERT_TRUE(plan_test::same_bytes(a, b)) << "right_apply_adjoint";

        const std::vector<Matrix> ops = {op, random_unitary(sub, rng)};
        const std::vector<KernelPlan> plans = {plan, plan_kernel(ops[1], qs, dim)};
        const std::vector<double> weights = {0.3, 0.7};
        sim::DensityMatrix rho(n, kernel_test::random_state(n, rng));
        Matrix expect(dim, dim);
        double* acc = reinterpret_cast<double*>(expect.data());
        for (std::size_t i = 0; i < ops.size(); ++i) {
          Matrix term = rho.rho();
          left_apply(term, ops[i], qs, plans[i], threaded);
          right_apply_adjoint(term, ops[i], qs, plans[i], threaded);
          const double* t = reinterpret_cast<const double*>(term.data());
          for (std::size_t j = 0; j < 2 * dim * dim; ++j) acc[j] += weights[i] * t[j];
        }
        rho.apply_kraus(ops, plans, &weights, qs);
        ASSERT_TRUE(plan_test::same_bytes(rho.rho(), expect)) << "apply_kraus";
      }
    }
  }
  force_simd_isa(prev);
}

TEST(Kernels, PlanRejectsAnotherSpan) {
  common::Rng rng(72);
  const Matrix op = random_unitary(4, rng);
  const std::vector<int> qs = {0, 2};
  const KernelPlan plan = plan_kernel(op, qs, 8);  // a 3-qubit span
  auto state8 = kernel_test::random_state(3, rng);
  EXPECT_NO_THROW(apply_operator(state8, op, qs, plan));
  auto state16 = kernel_test::random_state(4, rng);
  EXPECT_THROW(apply_operator(state16, op, qs, plan), common::Error);
  Matrix u16 = random_unitary(16, rng);
  EXPECT_THROW(left_apply(u16, op, qs, plan), common::Error);
  EXPECT_THROW(right_apply_adjoint(u16, op, qs, plan), common::Error);
  // An operator of another shape under the same plan is refused too.
  EXPECT_THROW(apply_operator(state8, random_unitary(2, rng), {0}, plan),
               common::Error);
  // plan_kernel runs the span checks itself.
  EXPECT_THROW(plan_kernel(op, {0, 0}, 8), common::Error);
  EXPECT_THROW(plan_kernel(op, {0, 3}, 8), common::Error);
  EXPECT_THROW(plan_kernel(op, {0, 1}, 12), common::Error);
  EXPECT_THROW(plan_kernel(op, {0}, 8), common::Error);
  EXPECT_THROW(plan_kernel(Matrix(4, 2), {0, 1}, 8), common::Error);
}

// ---- runtime SIMD dispatch -------------------------------------------------

TEST(Kernels, SimdDispatchResolvesOverridesAndClamps) {
  const SimdIsa prev = active_simd_isa();
  EXPECT_TRUE(simd_isa_supported(prev));
  EXPECT_TRUE(simd_isa_supported(SimdIsa::Scalar));
  EXPECT_TRUE(simd_isa_supported(best_supported_simd_isa()));

  bool ok = false;
  EXPECT_EQ(parse_simd_isa("scalar", &ok), SimdIsa::Scalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_simd_isa("avx2", &ok), SimdIsa::Avx2);
  EXPECT_TRUE(ok);
  parse_simd_isa("avx512", &ok);  // no AVX-512 table: the AVX2 one serves
  EXPECT_FALSE(ok);
  parse_simd_isa("neon", &ok);  // no NEON table: aarch64 runs scalar
  EXPECT_FALSE(ok);
  parse_simd_isa("AVX2", &ok);  // case-sensitive by contract
  EXPECT_FALSE(ok);
  parse_simd_isa("sse9", &ok);
  EXPECT_FALSE(ok);

  // The QAPPROX_SIMD resolution rules: unset/empty auto-detect, a supported
  // name pins, unknown or unsupported names fall back to auto-detection.
  EXPECT_EQ(resolve_simd_isa(nullptr), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa(""), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa("scalar"), SimdIsa::Scalar);
  EXPECT_EQ(resolve_simd_isa("sse9"), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa("avx512"), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa("neon"), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa("avx2"), simd_isa_supported(SimdIsa::Avx2)
                                          ? SimdIsa::Avx2
                                          : best_supported_simd_isa());

  // force_simd_isa installs supported requests and clamps the rest.
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2}) {
    const SimdIsa got = force_simd_isa(isa);
    EXPECT_TRUE(simd_isa_supported(got));
    if (simd_isa_supported(isa)) EXPECT_EQ(got, isa);
    EXPECT_EQ(active_simd_isa(), got);
  }
  force_simd_isa(prev);
  EXPECT_EQ(active_simd_isa(), prev);

  // Bit-exactness requires the scalar ISA (and no compile-time FMA).
  force_simd_isa(SimdIsa::Scalar);
  EXPECT_EQ(kernels_bit_exact(), !kernels_compiled_with_fma());
  if (best_supported_simd_isa() != SimdIsa::Scalar) {
    force_simd_isa(best_supported_simd_isa());
    EXPECT_FALSE(kernels_bit_exact());
  }
  force_simd_isa(prev);
}

TEST(Kernels, EveryHostIsaMatchesScalarWithinTolerance) {
  // Every planned entry point under each supported vector ISA against the
  // scalar reference: the state-vector apply, the matrix left/right applies
  // (the same kernels on the doubled register), and the density-matrix
  // unitary and Kraus updates built on them. Operators cover every k <= 4
  // kernel kind, including TwoQPermPhase.
  common::Rng rng(68);
  const SimdIsa prev = active_simd_isa();
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  const auto flat = [](const Matrix& m) {
    return std::vector<cplx>(m.data(), m.data() + m.rows() * m.cols());
  };
  const auto random_square = [&](std::size_t dim) {
    Matrix m(dim, dim);
    for (std::size_t i = 0; i < dim * dim; ++i)
      m.data()[i] = cplx{rng.normal(), rng.normal()};
    return m;
  };
  for (int n = 1; n <= 7; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const auto state = kernel_test::random_state(n, rng);
    double norm2 = 0.0;
    for (const cplx& a : state) norm2 += std::norm(a);
    std::vector<cplx> psi = state;  // normalized, for rho = |psi><psi|
    for (cplx& a : psi) a /= std::sqrt(norm2);
    const Matrix u = random_square(dim);
    for (int k = 1; k <= std::min(n, 4); ++k) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const std::size_t sub = std::size_t{1} << k;
      std::vector<Matrix> ops = {kernel_test::random_diagonal(sub, rng),
                                 random_unitary(sub, rng)};
      if (k == 2) ops.push_back(kernel_test::random_perm_phase(rng));
      const Matrix other = random_unitary(sub, rng);
      const KernelPlan other_plan = plan_kernel(other, qs, dim);
      for (const Matrix& op : ops) {
        const KernelPlan plan = plan_kernel(op, qs, dim);
        // Runs one entry point (a function of the apply options) under
        // scalar, then under AVX2 (when the host has it) with both options.
        const auto expect_isas_agree = [&](const char* name, const auto& run) {
          force_simd_isa(SimdIsa::Scalar);
          const std::vector<cplx> ref = run(serial);
          if (!simd_isa_supported(SimdIsa::Avx2)) return;
          ASSERT_EQ(force_simd_isa(SimdIsa::Avx2), SimdIsa::Avx2);
          for (const ApplyOptions& opts : {serial, threaded}) {
            const std::vector<cplx> got = run(opts);
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < got.size(); ++i)
              ASSERT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-12)
                  << name << " avx2 n=" << n << " k=" << k
                  << " kind=" << kernel_kind_name(plan.kind);
          }
        };
        expect_isas_agree("apply_operator", [&](const ApplyOptions& o) {
          std::vector<cplx> v = state;
          apply_operator(v, op, qs, plan, o);
          return v;
        });
        expect_isas_agree("left_apply", [&](const ApplyOptions& o) {
          Matrix m = u;
          left_apply(m, op, qs, plan, o);
          return flat(m);
        });
        expect_isas_agree("right_apply_adjoint", [&](const ApplyOptions& o) {
          Matrix m = u;
          right_apply_adjoint(m, op, qs, plan, o);
          return flat(m);
        });
        // The density-matrix updates take no apply options.
        expect_isas_agree("DensityMatrix::apply_unitary",
                          [&](const ApplyOptions&) {
                            sim::DensityMatrix rho(n, psi);
                            rho.apply_unitary(op, plan, qs);
                            return flat(rho.rho());
                          });
        expect_isas_agree("DensityMatrix::apply_kraus",
                          [&](const ApplyOptions&) {
                            sim::DensityMatrix rho(n, psi);
                            const std::vector<double> weights = {0.3, 0.7};
                            rho.apply_kraus({op, other}, {plan, other_plan},
                                            &weights, qs);
                            return flat(rho.rho());
                          });
      }
    }
  }
  force_simd_isa(prev);
}

}  // namespace
}  // namespace qc::linalg
