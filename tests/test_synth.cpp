// Unit + property tests for qc::synth — templates, cost, optimizers,
// QSearch, QFast, reducer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/kernels.hpp"
#include "linalg/factories.hpp"
#include "metrics/process.hpp"
#include "synth/cache.hpp"
#include "synth/cost.hpp"
#include "synth/qfactor.hpp"
#include "synth/invariants.hpp"
#include "synth/optimize.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"
#include "synth/reducer.hpp"
#include "synth/template.hpp"
#include "transpile/decompose.hpp"
#include "transpile/euler.hpp"

#include "simd_isas.hpp"

namespace qc::synth {
namespace {

using linalg::Matrix;

TEST(Template, UnitaryMatchesInstantiatedCircuit) {
  common::Rng rng(1);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(3);
  tpl.add_qsearch_block(0, 1);
  tpl.add_qsearch_block(1, 2);
  std::vector<double> params(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : params) p = rng.uniform(-3.0, 3.0);

  Matrix fast;
  tpl.unitary(params, fast);
  const Matrix slow = tpl.instantiate(params).to_unitary();
  EXPECT_NEAR(fast.max_abs_diff(slow), 0.0, 1e-10);
}

TEST(Template, CountsAndLayout) {
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  EXPECT_EQ(tpl.num_params(), 6);
  tpl.add_qsearch_block(0, 1);
  EXPECT_EQ(tpl.num_params(), 12);
  EXPECT_EQ(tpl.cx_count(), 1u);
  tpl.add_generic_block(0, 1);
  EXPECT_EQ(tpl.cx_count(), 4u);
  EXPECT_EQ(tpl.num_params(), 12 + 8 * 3);
}

TEST(Template, IdentityParamsGiveIdentityLayer) {
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  Matrix u;
  tpl.unitary(tpl.identity_params(), u);
  EXPECT_NEAR(u.max_abs_diff(Matrix::identity(4)), 0.0, 1e-12);
}

TEST(Template, RejectsBadOperands) {
  TemplateCircuit tpl(2);
  EXPECT_THROW(tpl.add_u3(2), common::Error);
  EXPECT_THROW(tpl.add_cx(0, 0), common::Error);
}

TEST(Cost, ZeroAtExactTarget) {
  common::Rng rng(2);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  tpl.add_qsearch_block(0, 1);
  std::vector<double> params(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : params) p = rng.uniform(-2.0, 2.0);
  Matrix target;
  tpl.unitary(params, target);

  const HsCost cost(tpl, target);
  EXPECT_NEAR(cost(params), 0.0, 1e-12);
  EXPECT_NEAR(cost.hs_distance(params), 0.0, 1e-6);
}

TEST(Cost, GradientMatchesFiniteDifferenceOfItself) {
  common::Rng rng(3);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  tpl.add_qsearch_block(0, 1);
  const Matrix target = linalg::random_unitary(4, rng);
  const HsCost cost(tpl, target);

  std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : x) p = rng.uniform(-1.0, 1.0);
  std::vector<double> grad;
  cost.gradient(x, grad);

  // Spot check two coordinates with a coarser step.
  for (std::size_t i : {std::size_t{0}, std::size_t{5}}) {
    std::vector<double> xp = x, xm = x;
    xp[i] += 1e-4;
    xm[i] -= 1e-4;
    const double fd = (cost(xp) - cost(xm)) / 2e-4;
    EXPECT_NEAR(grad[i], fd, 1e-5);
  }
}

TEST(Cost, HsDistanceConversion) {
  EXPECT_NEAR(cost_to_hs_distance(0.0), 0.0, 1e-12);
  EXPECT_NEAR(cost_to_hs_distance(1.0), 1.0, 1e-12);
  // f = 1 - fid; hs = sqrt(1 - fid^2).
  EXPECT_NEAR(cost_to_hs_distance(0.5), std::sqrt(0.75), 1e-12);
}

TEST(Optimize, LbfgsSolvesQuadratic) {
  const CostFn f = [](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += (i + 1.0) * (x[i] - 1.0) * (x[i] - 1.0);
    return s;
  };
  const GradFn g = [](const std::vector<double>& x, std::vector<double>& grad) {
    grad.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      grad[i] = 2.0 * (i + 1.0) * (x[i] - 1.0);
  };
  const OptimizeResult r = lbfgs_minimize(f, g, std::vector<double>(6, -2.0));
  EXPECT_LT(r.value, 1e-10);
  for (double v : r.params) EXPECT_NEAR(v, 1.0, 1e-5);
}

TEST(Optimize, LbfgsHandlesRosenbrock) {
  const CostFn f = [](const std::vector<double>& x) {
    return 100.0 * std::pow(x[1] - x[0] * x[0], 2) + std::pow(1.0 - x[0], 2);
  };
  const GradFn g = [](const std::vector<double>& x, std::vector<double>& grad) {
    grad = {-400.0 * x[0] * (x[1] - x[0] * x[0]) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] * x[0])};
  };
  OptimizeOptions opts;
  opts.max_iterations = 1000;
  const OptimizeResult r = lbfgs_minimize(f, g, {-1.2, 1.0}, opts);
  // Rosenbrock's banana valley is the classic stress test for the Armijo
  // backtracking line search; near-zero is success here.
  EXPECT_LT(r.value, 1e-4);
}

TEST(Optimize, NelderMeadSolvesQuadratic) {
  const CostFn f = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  OptimizeOptions opts;
  opts.max_iterations = 300;
  const OptimizeResult r = nelder_mead_minimize(f, {0.0, 0.0}, opts);
  EXPECT_NEAR(r.params[0], 2.0, 1e-3);
  EXPECT_NEAR(r.params[1], -1.0, 1e-3);
}

TEST(Optimize, MultistartEscapesBadStart) {
  // f has a local minimum at x=3 (value 1) and global at x=0 (value 0).
  const CostFn f = [](const std::vector<double>& x) {
    const double a = x[0];
    const double local = 1.0 + (a - 3.0) * (a - 3.0);
    const double global = a * a / 2.0;
    return std::min(local, global);
  };
  const GradFn g = [&](const std::vector<double>& x, std::vector<double>& grad) {
    const double a = x[0];
    const double local = 1.0 + (a - 3.0) * (a - 3.0);
    const double global = a * a / 2.0;
    grad = {local < global ? 2.0 * (a - 3.0) : a};
  };
  common::Rng rng(5);
  MultistartOptions opts;
  opts.num_starts = 8;
  const OptimizeResult r = multistart_minimize(f, g, {3.1}, rng, opts);
  EXPECT_LT(r.value, 0.2);
}

TEST(QSearch, SynthesizesSingleCxExactly) {
  ir::QuantumCircuit qc(2);
  qc.cx(0, 1);
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 10;
  const QSearchResult res = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.best.cnot_count, 1u);
}

TEST(QSearch, DepthOptimalForCz) {
  ir::QuantumCircuit qc(2);
  qc.cz(0, 1);
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 12;
  const QSearchResult res = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.best.cnot_count, 1u);  // CZ needs exactly one CX
}

TEST(QSearch, InstrumentationSeesEveryOptimizedNode) {
  ir::QuantumCircuit qc(2);
  qc.cz(0, 1);
  int calls = 0;
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 6;
  opts.intermediate_callback = [&](const ApproxCircuit& c) {
    ++calls;
    EXPECT_GE(c.hs_distance, 0.0);
    EXPECT_EQ(c.source, "qsearch");
    EXPECT_EQ(c.circuit.count(ir::GateKind::CX), c.cnot_count);
  };
  const QSearchResult res = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_EQ(calls, res.nodes_optimized);
  EXPECT_GT(calls, 1);
}

TEST(QSearch, ReportedHsMatchesRecomputation) {
  common::Rng rng(6);
  const Matrix target = linalg::random_unitary(4, rng);
  std::vector<ApproxCircuit> seen;
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 8;
  opts.intermediate_callback = [&](const ApproxCircuit& c) { seen.push_back(c); };
  qsearch_synthesize(target, 2, opts);
  ASSERT_FALSE(seen.empty());
  for (const auto& c : seen) {
    const double recomputed = metrics::hs_distance(target, c.circuit.to_unitary());
    ASSERT_NEAR(c.hs_distance, recomputed, 1e-6);
  }
}

TEST(QSearch, RespectsCouplingMap) {
  const noise::CouplingMap line = noise::CouplingMap::line(3);
  common::Rng rng(7);
  const Matrix target = linalg::random_unitary(8, rng);
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 10;
  std::vector<ApproxCircuit> seen;
  opts.intermediate_callback = [&](const ApproxCircuit& c) { seen.push_back(c); };
  qsearch_synthesize(target, 3, opts, &line);
  for (const auto& c : seen) {
    for (const auto& g : c.circuit.gates()) {
      if (g.kind != ir::GateKind::CX) continue;
      ASSERT_TRUE(line.are_coupled(g.qubits[0], g.qubits[1]));
    }
  }
}

TEST(QSearch, DeterministicAcrossRuns) {
  ir::QuantumCircuit qc(2);
  qc.cz(0, 1);
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 5;
  // Both runs search; a cache hit would compare nothing.
  clear_synth_cache();
  const QSearchResult a = qsearch_synthesize(qc.to_unitary(), 2, opts);
  clear_synth_cache();
  const QSearchResult b = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_EQ(a.best.cnot_count, b.best.cnot_count);
  EXPECT_DOUBLE_EQ(a.best.hs_distance, b.best.hs_distance);
}

TEST(QFast, ConvergesOnTwoQubitUnitary) {
  common::Rng rng(8);
  const Matrix target = linalg::random_unitary(4, rng);
  QFastOptions opts;
  opts.max_blocks = 2;
  opts.optimizer.max_iterations = 150;
  opts.restarts_per_depth = 3;
  const QFastResult res = qfast_synthesize(target, 2, opts);
  // One generic block spans SU(4): distance should be tiny.
  EXPECT_LT(res.best.hs_distance, 1e-4);
}

TEST(QFast, PartialSolutionCallbackFires) {
  common::Rng rng(9);
  const Matrix target = linalg::random_unitary(8, rng);
  int calls = 0;
  QFastOptions opts;
  opts.max_blocks = 3;
  opts.optimizer.max_iterations = 25;
  opts.partial_solution_callback = [&](const ApproxCircuit& c) {
    ++calls;
    EXPECT_EQ(c.source, "qfast");
  };
  qfast_synthesize(target, 3, opts);
  EXPECT_GE(calls, 3);  // at least one per depth
}

TEST(QFast, DistanceImprovesWithDepth) {
  common::Rng rng(10);
  const Matrix target = linalg::random_unitary(8, rng);
  std::vector<double> best_by_depth;
  QFastOptions opts;
  opts.max_blocks = 4;
  opts.optimizer.max_iterations = 40;
  opts.emit_coarse_passes = false;
  opts.partial_solution_callback = [&](const ApproxCircuit& c) {
    best_by_depth.push_back(c.hs_distance);
  };
  qfast_synthesize(target, 3, opts);
  ASSERT_GE(best_by_depth.size(), 3u);
  EXPECT_LT(best_by_depth.back(), best_by_depth.front());
}

TEST(Reducer, FullKeepReproducesReference) {
  ir::QuantumCircuit ref(2);
  ref.h(0).cx(0, 1).rz(0.4, 1).cx(0, 1);
  ReducerOptions opts;
  opts.keep_fractions = {1.0};
  const auto out = reduce_circuit(ref, opts);
  ASSERT_FALSE(out.empty());
  EXPECT_LT(out.back().hs_distance, 1e-4);
}

TEST(Reducer, ProducesRequestedDepthLadder) {
  ir::QuantumCircuit ref(3);
  for (int r = 0; r < 4; ++r) ref.cx(0, 1).cx(1, 2).rz(0.3, 2);
  ReducerOptions opts;
  opts.keep_fractions = {0.0, 0.25, 0.5, 1.0};
  opts.variants_per_size = 1;
  const auto out = reduce_circuit(ref, opts);
  ASSERT_GE(out.size(), 4u);
  EXPECT_EQ(out.front().cnot_count, 0u);
  EXPECT_EQ(out.back().cnot_count, 8u);
  // Sorted by CNOT count.
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(out[i - 1].cnot_count, out[i].cnot_count);
}

TEST(Reducer, ReportedHsIsAccurate) {
  ir::QuantumCircuit ref(3);
  ref.h(0).cx(0, 1).cx(1, 2).rz(0.9, 2).cx(0, 1);
  const Matrix target = ref.to_unitary();
  ReducerOptions opts;
  opts.keep_fractions = {0.5, 1.0};
  opts.variants_per_size = 2;
  for (const auto& c : reduce_circuit(ref, opts)) {
    const double recomputed = metrics::hs_distance(target, c.circuit.to_unitary());
    ASSERT_NEAR(c.hs_distance, recomputed, 1e-6);
  }
}

TEST(Reducer, BoundaryModeKeepsParameterCountSmall) {
  // A wide/deep reference forces boundary mode; result must still carry the
  // surviving CX count.
  ir::QuantumCircuit ref(4);
  for (int r = 0; r < 10; ++r) ref.cx(0, 1).cx(1, 2).cx(2, 3).rz(0.2, 3);
  ReducerOptions opts;
  opts.keep_fractions = {0.5};
  opts.variants_per_size = 1;
  opts.full_reopt_max_qubits = 3;  // 4q -> boundary
  const auto out = reduce_circuit(ref, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cnot_count, 15u);
  EXPECT_EQ(out[0].circuit.count(ir::GateKind::CX), 15u);
}

// ---- analytic gradients ----------------------------------------------------

/// Central-difference gradient (step 1e-6 radians): the analytic sweep's
/// oracle.
std::vector<double> central_difference(const HsCost& cost, const std::vector<double>& params) {
  constexpr double h = 1e-6;
  std::vector<double> grad(params.size());
  std::vector<double> x = params;
  for (std::size_t i = 0; i < params.size(); ++i) {
    x[i] = params[i] + h;
    const double fp = cost(x);
    x[i] = params[i] - h;
    const double fm = cost(x);
    x[i] = params[i];
    grad[i] = (fp - fm) / (2.0 * h);
  }
  return grad;
}

TEST(Cost, AnalyticMatchesFiniteDifferenceOnRandomTemplates) {
  common::Rng rng(41);
  for (int n = 2; n <= 4; ++n) {
    TemplateCircuit tpl = TemplateCircuit::u3_layer(n);
    for (int b = 0; b < n + 2; ++b) {
      const int a = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n - 1)));
      tpl.add_qsearch_block(a, a + 1);
    }
    const Matrix target =
        linalg::random_unitary(std::size_t{1} << n, rng);
    const HsCost cost(tpl, target);
    std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
    for (auto& p : x) p = rng.uniform(-3.0, 3.0);

    std::vector<double> analytic;
    cost.gradient(x, analytic);
    const std::vector<double> fd = central_difference(cost, x);
    ASSERT_EQ(analytic.size(), fd.size());
    for (std::size_t i = 0; i < analytic.size(); ++i)
      EXPECT_NEAR(analytic[i], fd[i], 1e-5) << "n=" << n << " param " << i;
  }
}

// ---- exactness oracles -----------------------------------------------------
//
// The synthesis inner loop (U3 row/column kernels, the HS cost, the gradient
// sweep, L-BFGS) is written on interleaved doubles with one sin/cos set per U3
// slot and a preallocated L-BFGS ring. Its contract is bit-identity with the
// straightforward complex-typed code below, which is kept as the oracle. The
// only edit to that code is that std::polar(r, a) is spelled out as
// {r cos a, r sin a}, exactly what libstdc++ computes: r may be negative here,
// which std::polar does not allow (and asserts under _GLIBCXX_ASSERTIONS).
//
// Exact equality holds only without FMA contraction: where the compiler may
// fuse a*b - c*d into an FMA, the reference and the kernels can be contracted
// differently and round differently. Such builds (__FP_FAST_FMA) compare to a
// tight tolerance instead.

namespace ref {

using linalg::cplx;

cplx polar(double r, double a) { return cplx{r * std::cos(a), r * std::sin(a)}; }

U3Entries u3_entries(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return U3Entries{cplx{c, 0.0}, -polar(s, lambda), polar(s, phi),
                   polar(c, phi + lambda)};
}

void left_u3(Matrix& m, int q, const U3Entries& g) {
  const std::size_t dim = m.rows();
  const std::size_t cols = m.cols();
  cplx* data = m.data();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim; ++r) {
    if (r & bit) continue;
    cplx* row0 = data + r * cols;
    cplx* row1 = data + (r | bit) * cols;
    for (std::size_t col = 0; col < cols; ++col) {
      const cplx v0 = row0[col];
      const cplx v1 = row1[col];
      row0[col] = g.g00 * v0 + g.g01 * v1;
      row1[col] = g.g10 * v0 + g.g11 * v1;
    }
  }
}

void left_cx(Matrix& m, int control, int target) {
  const std::size_t dim = m.rows();
  const std::size_t cols = m.cols();
  cplx* data = m.data();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t r = 0; r < dim; ++r) {
    if (!(r & cbit) || (r & tbit)) continue;
    cplx* row0 = data + r * cols;
    cplx* row1 = data + (r | tbit) * cols;
    for (std::size_t col = 0; col < cols; ++col) std::swap(row0[col], row1[col]);
  }
}

void right_u3(Matrix& m, int q, const U3Entries& g) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  cplx* data = m.data();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t r = 0; r < rows; ++r) {
    cplx* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (c & bit) continue;
      const cplx v0 = row[c];
      const cplx v1 = row[c | bit];
      row[c] = v0 * g.g00 + v1 * g.g10;
      row[c | bit] = v0 * g.g01 + v1 * g.g11;
    }
  }
}

void right_cx(Matrix& m, int control, int target) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  cplx* data = m.data();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t r = 0; r < rows; ++r) {
    cplx* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(c & cbit) || (c & tbit)) continue;
      std::swap(row[c], row[c | tbit]);
    }
  }
}

/// HsCost::operator(): the template unitary, then 1 - |Tr(T† V)| / d.
double cost_value(const TemplateCircuit& tpl, const Matrix& target,
                  const std::vector<double>& params) {
  const std::size_t dim = std::size_t{1} << tpl.num_qubits();
  Matrix out(dim, dim);
  cplx* m = out.data();
  for (std::size_t i = 0; i < dim * dim; ++i) m[i] = cplx{0.0, 0.0};
  for (std::size_t i = 0; i < dim; ++i) m[i * dim + i] = cplx{1.0, 0.0};
  for (const auto& op : tpl.ops()) {
    if (op.is_cx) {
      left_cx(out, op.a, op.b);
    } else {
      left_u3(out, op.a,
              u3_entries(params[op.param_offset], params[op.param_offset + 1],
                         params[op.param_offset + 2]));
    }
  }
  const cplx* t = target.data();
  const cplx* v = out.data();
  const std::size_t n = target.rows() * target.cols();
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc += std::conj(t[i]) * v[i];
  const double fid = std::abs(acc) / static_cast<double>(target.rows());
  return 1.0 - std::min(fid, 1.0);
}

/// HsCost::gradient's sweep, with per-call locals for its scratch.
void gradient_analytic(const TemplateCircuit& tpl, const Matrix& target,
                       const std::vector<double>& params, std::vector<double>& grad) {
  grad.assign(params.size(), 0.0);
  if (params.empty()) return;

  const auto& ops = tpl.ops();
  const std::size_t m = ops.size();
  const std::size_t dim = target.rows();

  std::vector<Matrix> suffix(m + 1);
  suffix[m] = Matrix::identity(dim);
  for (std::size_t k = m; k-- > 0;) {
    suffix[k] = suffix[k + 1];
    const auto& op = ops[k];
    if (op.is_cx) {
      right_cx(suffix[k], op.a, op.b);
    } else {
      right_u3(suffix[k], op.a,
               u3_entries(params[op.param_offset], params[op.param_offset + 1],
                          params[op.param_offset + 2]));
    }
  }

  Matrix prefix(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c) prefix(r, c) = std::conj(target(c, r));
  std::vector<cplx> dw(params.size(), cplx{0.0, 0.0});
  for (std::size_t k = 0; k < m; ++k) {
    const auto& op = ops[k];
    if (op.is_cx) {
      left_cx(prefix, op.a, op.b);
      continue;
    }
    const double theta = params[op.param_offset];
    const double phi = params[op.param_offset + 1];
    const double lambda = params[op.param_offset + 2];
    const U3Entries g = u3_entries(theta, phi, lambda);

    const Matrix& s = suffix[k + 1];
    const std::size_t bit = std::size_t{1} << op.a;
    cplx e00{0.0, 0.0}, e01{0.0, 0.0}, e10{0.0, 0.0}, e11{0.0, 0.0};
    for (std::size_t rest = 0; rest < dim; ++rest) {
      if (rest & bit) continue;
      const cplx* lrow0 = prefix.data() + rest * dim;
      const cplx* lrow1 = prefix.data() + (rest | bit) * dim;
      for (std::size_t j = 0; j < dim; ++j) {
        const cplx s0 = s(j, rest);
        const cplx s1 = s(j, rest | bit);
        e00 += lrow0[j] * s0;
        e01 += lrow0[j] * s1;
        e10 += lrow1[j] * s0;
        e11 += lrow1[j] * s1;
      }
    }

    const double c = std::cos(theta / 2.0);
    const double sn = std::sin(theta / 2.0);
    const cplx i_unit{0.0, 1.0};
    const cplx dt00{-0.5 * sn, 0.0};
    const cplx dt01 = -0.5 * polar(c, lambda);
    const cplx dt10 = 0.5 * polar(c, phi);
    const cplx dt11 = -0.5 * polar(sn, phi + lambda);
    dw[op.param_offset] = e00 * dt00 + e01 * dt10 + e10 * dt01 + e11 * dt11;
    dw[op.param_offset + 1] = (e01 * g.g10 + e11 * g.g11) * i_unit;
    dw[op.param_offset + 2] = (e10 * g.g01 + e11 * g.g11) * i_unit;

    left_u3(prefix, op.a, g);
  }

  const cplx w = prefix.trace();
  const double abs_w = std::abs(w);
  const double d = static_cast<double>(dim);
  if (abs_w <= 0.0 || abs_w / d >= 1.0) return;
  const cplx factor = std::conj(w) * (-1.0 / (d * abs_w));
  for (std::size_t p = 0; p < grad.size(); ++p)
    grad[p] = (factor * dw[p]).real();
}

/// The reducer's boundary gradient as plain central differences: two full
/// boundary_gap calls per angle.
void boundary_gradient(const Matrix& target, const Matrix& kept, const std::vector<double>& x,
                       double h, std::vector<double>& grad) {
  Matrix scratch;
  grad.resize(x.size());
  std::vector<double> probe = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    probe[i] = x[i] + h;
    const double fp = boundary_gap(target, kept, probe, scratch);
    probe[i] = x[i] - h;
    const double fm = boundary_gap(target, kept, probe, scratch);
    probe[i] = x[i];
    grad[i] = (fp - fm) / (2.0 * h);
  }
}

/// QFactor's slot environment with std::complex accumulators, zeroed per
/// base and added to kt one base at a time.
Matrix qfactor_environment(const Matrix& lmat, const Matrix& s, int qubit) {
  const std::size_t dim = lmat.rows();
  const std::size_t bit = std::size_t{1} << qubit;
  Matrix kt(2, 2);
  for (std::size_t base = 0; base < dim; ++base) {
    if (base & bit) continue;
    const cplx* lrow0 = lmat.data() + base * dim;
    const cplx* lrow1 = lmat.data() + (base | bit) * dim;
    cplx k00{0.0, 0.0}, k01{0.0, 0.0}, k10{0.0, 0.0}, k11{0.0, 0.0};
    for (std::size_t j = 0; j < dim; ++j) {
      const cplx s0 = s(j, base);
      const cplx s1 = s(j, base | bit);
      k00 += lrow0[j] * s0;
      k01 += lrow0[j] * s1;
      k10 += lrow1[j] * s0;
      k11 += lrow1[j] * s1;
    }
    kt(0, 0) += k00;
    kt(0, 1) += k01;
    kt(1, 0) += k10;
    kt(1, 1) += k11;
  }
  return kt;
}

/// lbfgs_minimize with deque-held history and per-iteration vectors.
OptimizeResult lbfgs_minimize(const CostFn& f, const GradFn& grad,
                              const std::vector<double>& x0,
                              const OptimizeOptions& options) {
  const std::size_t n = x0.size();

  OptimizeResult result;
  result.params = x0;
  result.value = f(x0);
  ++result.evaluations;

  std::vector<double> x = x0;
  std::vector<double> g(n);
  grad(x, g);

  std::deque<std::vector<double>> s_hist, y_hist;
  std::deque<double> rho_hist;

  std::vector<double> direction(n), x_new(n), g_new(n), q(n);

  common::StopPoller poller(options.deadline, /*stride=*/1);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (poller.should_stop()) break;
    ++result.iterations;

    double gnorm = 0.0;
    for (double v : g) gnorm += v * v;
    gnorm = std::sqrt(gnorm);
    if (gnorm < options.tolerance) break;

    q = g;
    std::vector<double> alpha(s_hist.size());
    for (std::size_t i = s_hist.size(); i-- > 0;) {
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) dot += s_hist[i][k] * q[k];
      alpha[i] = rho_hist[i] * dot;
      for (std::size_t k = 0; k < n; ++k) q[k] -= alpha[i] * y_hist[i][k];
    }
    double gamma = 1.0;
    if (!s_hist.empty()) {
      double sy = 0.0, yy = 0.0;
      const auto& s = s_hist.back();
      const auto& y = y_hist.back();
      for (std::size_t k = 0; k < n; ++k) {
        sy += s[k] * y[k];
        yy += y[k] * y[k];
      }
      if (yy > 1e-300) gamma = sy / yy;
    }
    for (std::size_t k = 0; k < n; ++k) q[k] *= gamma;
    for (std::size_t i = 0; i < s_hist.size(); ++i) {
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) dot += y_hist[i][k] * q[k];
      const double beta = rho_hist[i] * dot;
      for (std::size_t k = 0; k < n; ++k) q[k] += s_hist[i][k] * (alpha[i] - beta);
    }
    for (std::size_t k = 0; k < n; ++k) direction[k] = -q[k];

    double dir_dot_g = 0.0;
    for (std::size_t k = 0; k < n; ++k) dir_dot_g += direction[k] * g[k];
    if (dir_dot_g >= 0.0) {
      for (std::size_t k = 0; k < n; ++k) direction[k] = -g[k];
      dir_dot_g = -gnorm * gnorm;
    }

    const double f0 = result.value;
    double step = 1.0;
    constexpr double c1 = 1e-4;
    bool accepted = false;
    for (int ls = 0; ls < 30; ++ls) {
      for (std::size_t k = 0; k < n; ++k) x_new[k] = x[k] + step * direction[k];
      const double f_new = f(x_new);
      ++result.evaluations;
      if (f_new <= f0 + c1 * step * dir_dot_g) {
        accepted = true;
        result.value = f_new;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;

    grad(x_new, g_new);

    std::vector<double> s(n), y(n);
    double sy = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      s[k] = x_new[k] - x[k];
      y[k] = g_new[k] - g[k];
      sy += s[k] * y[k];
    }
    if (sy > 1e-12) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (static_cast<int>(s_hist.size()) > options.lbfgs_memory) {
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    }
    const double improvement = f0 - result.value;
    x.swap(x_new);
    g.swap(g_new);
    if (improvement >= 0.0 && improvement < options.tolerance && iter > 4) break;
  }
  result.params = x;
  return result;
}

}  // namespace ref

/// Asserts `count` doubles equal bit for bit (see the FMA note above).
void expect_same_doubles(const double* got, const double* want, std::size_t count,
                         const std::string& what) {
#ifndef __FP_FAST_FMA
  EXPECT_EQ(std::memcmp(got, want, count * sizeof(double)), 0) << what;
#else
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_NEAR(got[i], want[i], 1e-12) << what << " [" << i << "]";
#endif
}

void expect_same_matrix(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  expect_same_doubles(reinterpret_cast<const double*>(got.data()),
                      reinterpret_cast<const double*>(want.data()),
                      2 * got.rows() * got.cols(), what);
}

/// Random angle in [-2π, 2π): θ/2 covers all four sign patterns of
/// (cos, sin)(θ/2).
double random_angle(common::Rng& rng) {
  return rng.uniform(-2.0 * std::numbers::pi, 2.0 * std::numbers::pi);
}

/// A QSearch-shaped template on n qubits (a bare U3 layer plus extra U3s for
/// n = 1).
TemplateCircuit random_template(int n, common::Rng& rng) {
  TemplateCircuit tpl = TemplateCircuit::u3_layer(n);
  if (n == 1) {
    tpl.add_u3(0);
    tpl.add_u3(0);
    return tpl;
  }
  for (int b = 0; b < n + 2; ++b) {
    const int a = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n - 1)));
    if (rng.uniform_int(2) == 0) {
      tpl.add_qsearch_block(a, a + 1);
    } else {
      tpl.add_qsearch_block(a + 1, a);
    }
  }
  return tpl;
}

using qc::simd_test::forceable_isas;
using qc::simd_test::SimdIsaRestorer;

/// A rows x cols matrix of entries uniform in [-1, 1) + i[-1, 1).
Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i)
    m.data()[i] = linalg::cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

TEST(Template, RowKernelsMatchComplexReferenceBitwise) {
  const SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(51);
    int negative_cos = 0, negative_sin = 0;
    for (int n = 1; n <= 5; ++n) {
      const std::size_t dim = std::size_t{1} << n;
      for (int trial = 0; trial < 8; ++trial) {
        const double theta = random_angle(rng);
        const double phi = random_angle(rng);
        const double lambda = random_angle(rng);
        negative_cos += std::cos(theta / 2.0) < 0.0;
        negative_sin += std::sin(theta / 2.0) < 0.0;
        const U3Entries g = u3_entries(theta, phi, lambda);
        const U3Entries want_g = ref::u3_entries(theta, phi, lambda);
        expect_same_doubles(reinterpret_cast<const double*>(&g),
                            reinterpret_cast<const double*>(&want_g), 8, "u3_entries");

        // Square operands, and a width of 3, which no vector width divides:
        // left ops on dim x 3, right ops on 3 x dim.
        for (const std::size_t width : {dim, std::size_t{3}}) {
          const Matrix rows = random_matrix(dim, width, rng);
          const Matrix cols = random_matrix(width, dim, rng);
          const std::string where = "n=" + std::to_string(n) + " width=" +
                                    std::to_string(width) + " trial " + std::to_string(trial);
          for (int q = 0; q < n; ++q) {
            Matrix got = rows, want = rows;
            rowops::left_u3(got, q, g);
            ref::left_u3(want, q, want_g);
            expect_same_matrix(got, want, "left_u3 q=" + std::to_string(q) + " " + where);
            got = cols;
            want = cols;
            rowops::right_u3(got, q, g);
            ref::right_u3(want, q, want_g);
            expect_same_matrix(got, want, "right_u3 q=" + std::to_string(q) + " " + where);
          }
        }
      }
    }
    EXPECT_GT(negative_cos, 0);
    EXPECT_GT(negative_sin, 0);
  }
}

TEST(Cost, ValueMatchesComplexReferenceBitwise) {
  const SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(52);
    for (int n = 1; n <= 5; ++n) {
      const TemplateCircuit tpl = random_template(n, rng);
      const Matrix target = linalg::random_unitary(std::size_t{1} << n, rng);
      const HsCost cost(tpl, target);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
        for (auto& p : x) p = random_angle(rng);
        const double got = cost(x);
        const double want = ref::cost_value(tpl, target, x);
        expect_same_doubles(&got, &want, 1, "n=" + std::to_string(n));
      }
    }
  }
}

TEST(Cost, AnalyticGradientMatchesComplexReferenceBitwise) {
  const SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(53);
    for (int n = 1; n <= 5; ++n) {
      const TemplateCircuit tpl = random_template(n, rng);
      const Matrix target = linalg::random_unitary(std::size_t{1} << n, rng);
      const HsCost cost(tpl, target);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
        for (auto& p : x) p = random_angle(rng);
        std::vector<double> got, want;
        cost.gradient(x, got);  // the second trial onward reuses the scratch
        ref::gradient_analytic(tpl, target, x, want);
        ASSERT_EQ(got.size(), want.size());
        expect_same_doubles(got.data(), want.data(), got.size(),
                            "n=" + std::to_string(n) + " trial " + std::to_string(trial));
      }
    }
  }
}

// The value call leaves the U3 entries of its point in the cost's scratch,
// and a gradient at the same point reuses them. Whatever came first, the
// gradient is the reference's, also when the last value's point differs
// from the gradient's only in the sign of a zero angle: sin(-0.0) is -0.0,
// so the two are different points to the trig, though at these points the
// sign does not survive into the gradient's bits.
TEST(Cost, GradientIgnoresWhetherAValueCameFirst) {
  const SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(57);
    for (int n = 1; n <= 5; ++n) {
      const TemplateCircuit tpl = random_template(n, rng);
      const Matrix target = linalg::random_unitary(std::size_t{1} << n, rng);
      std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
      for (auto& p : x) p = random_angle(rng);
      std::vector<double> other(x.size());
      for (auto& p : other) p = random_angle(rng);
      // x with its first θ at +0.0, and the same point with it at -0.0.
      std::vector<double> plus_zero = x, minus_zero = x;
      plus_zero[0] = 0.0;
      minus_zero[0] = -0.0;

      // Runs `before` on a fresh cost, then compares its gradient at `at`.
      const auto check = [&](const std::function<void(const HsCost&)>& before,
                             const std::vector<double>& at, const std::string& what) {
        const HsCost cost(tpl, target);
        before(cost);
        std::vector<double> got, want;
        cost.gradient(at, got);
        ref::gradient_analytic(tpl, target, at, want);
        ASSERT_EQ(got.size(), want.size());
        expect_same_doubles(got.data(), want.data(), got.size(),
                            what + " n=" + std::to_string(n));
      };
      const auto value_at = [](const std::vector<double>& p) {
        return [&p](const HsCost& cost) { cost(p); };
      };
      check([](const HsCost&) {}, x, "gradient alone");
      check(value_at(x), x, "value then gradient at the same x");
      check(value_at(other), x, "value at x' then gradient at x");
      check(
          [&](const HsCost& cost) {
            cost(x);
            std::vector<double> ignored;
            cost.gradient(other, ignored);
          },
          x, "value at x, gradient at x', then gradient at x");
      check(value_at(plus_zero), minus_zero, "value at +0.0 then gradient at -0.0");
      check(value_at(minus_zero), plus_zero, "value at -0.0 then gradient at +0.0");
    }
  }
}

TEST(Reducer, CheckpointedGradientMatchesCentralDifferenceBitwise) {
  const SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(55);
    for (int n = 1; n <= 5; ++n) {
      const std::size_t dim = std::size_t{1} << n;
      const Matrix target = linalg::random_unitary(dim, rng);
      const Matrix kept = linalg::random_unitary(dim, rng);
      std::vector<Matrix> checkpoints;
      Matrix scratch;
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<double> x(static_cast<std::size_t>(6 * n));
        for (auto& p : x) p = random_angle(rng);
        std::vector<double> got, want;
        // The second trial onward reuses the checkpoints and the scratch.
        boundary_gap_gradient(target, kept, x, 1e-6, got, checkpoints, scratch);
        ref::boundary_gradient(target, kept, x, 1e-6, want);
        ASSERT_EQ(got.size(), want.size());
        expect_same_doubles(got.data(), want.data(), got.size(),
                            "n=" + std::to_string(n) + " trial " + std::to_string(trial));
      }
    }
  }
}

TEST(QFactor, EnvironmentMatchesComplexReferenceBitwise) {
  const SimdIsaRestorer restore;
  for (const linalg::SimdIsa isa : forceable_isas()) {
    ASSERT_EQ(linalg::force_simd_isa(isa), isa);
    SCOPED_TRACE(linalg::simd_isa_name(isa));
    common::Rng rng(56);
    for (int n = 1; n <= 5; ++n) {
      const std::size_t dim = std::size_t{1} << n;
      const Matrix l = linalg::random_unitary(dim, rng);
      const Matrix suffix = linalg::random_unitary(dim, rng);
      for (int q = 0; q < n; ++q) {
        expect_same_matrix(qfactor_environment(l, suffix, q), ref::qfactor_environment(l, suffix, q),
                           "n=" + std::to_string(n) + " q=" + std::to_string(q));
      }
    }
  }
}

/// Everything the dispatched synthesis entry points compute from one fixed
/// seed, one labelled block of doubles per call.
std::vector<std::pair<std::string, std::vector<double>>> synthesis_outputs() {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  const auto add_matrix = [&out](std::string label, const Matrix& m) {
    const double* d = reinterpret_cast<const double*>(m.data());
    out.emplace_back(std::move(label), std::vector<double>(d, d + 2 * m.rows() * m.cols()));
  };
  common::Rng rng(54);
  for (int n = 1; n <= 6; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    // The row ops on square operands and on a width of 3, which no vector
    // width divides: left ops on dim x 3, right ops on 3 x dim.
    for (const std::size_t width : {dim, std::size_t{3}}) {
      const std::string where = " n=" + std::to_string(n) + " width=" + std::to_string(width);
      const Matrix rows = random_matrix(dim, width, rng);
      const Matrix cols = random_matrix(width, dim, rng);
      for (int q = 0; q < n; ++q) {
        const U3Entries g = u3_entries(random_angle(rng), random_angle(rng), random_angle(rng));
        const std::string at = " q=" + std::to_string(q) + where;
        Matrix m = rows;
        rowops::left_u3(m, q, g);
        add_matrix("left_u3" + at, m);
        m = cols;
        rowops::right_u3(m, q, g);
        add_matrix("right_u3" + at, m);
        if (n == 1) continue;
        const int target = (q + 1) % n;
        m = rows;
        rowops::left_cx(m, q, target);
        add_matrix("left_cx" + at, m);
        m = cols;
        rowops::right_cx(m, q, target);
        add_matrix("right_cx" + at, m);
      }
    }
    const std::string where = " n=" + std::to_string(n);
    const TemplateCircuit tpl = random_template(n, rng);
    const Matrix target = linalg::random_unitary(dim, rng);
    const HsCost cost(tpl, target);
    std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
    for (auto& p : x) p = random_angle(rng);
    Matrix u;
    tpl.unitary(x, u);
    add_matrix("unitary" + where, u);
    out.push_back({"HsCost value" + where, {cost(x)}});
    std::vector<double> grad;
    cost.gradient(x, grad);
    out.emplace_back("HsCost gradient" + where, grad);
    out.push_back({"fidelity_gap" + where, {fidelity_gap(target, u)}});
    std::vector<double> boundary(static_cast<std::size_t>(6 * n));
    for (auto& p : boundary) p = random_angle(rng);
    Matrix scratch;
    out.push_back({"boundary_gap" + where,
                   {boundary_gap(target, linalg::random_unitary(dim, rng), boundary, scratch)}});
    add_matrix("boundary_gap product" + where, scratch);
    std::vector<double> boundary_grad;
    std::vector<Matrix> checkpoints;
    boundary_gap_gradient(target, linalg::random_unitary(dim, rng), boundary, 1e-6,
                          boundary_grad, checkpoints, scratch);
    out.emplace_back("boundary_gap_gradient" + where, boundary_grad);
    add_matrix("qfactor_environment" + where,
               qfactor_environment(linalg::random_unitary(dim, rng),
                                   linalg::random_unitary(dim, rng), n - 1));
  }
  return out;
}

TEST(Cost, AvxAndBaselineCopiesAgreeBitwise) {
  if (!linalg::simd_isa_supported(linalg::SimdIsa::Avx2))
    GTEST_SKIP() << "the host does not run the AVX2 copies";
  const SimdIsaRestorer restore;
  ASSERT_EQ(linalg::force_simd_isa(linalg::SimdIsa::Scalar), linalg::SimdIsa::Scalar);
  const auto baseline = synthesis_outputs();
  ASSERT_EQ(linalg::force_simd_isa(linalg::SimdIsa::Avx2), linalg::SimdIsa::Avx2);
  const auto avx2 = synthesis_outputs();
  ASSERT_EQ(baseline.size(), avx2.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const auto& [label, want] = baseline[i];
    const std::vector<double>& got = avx2[i].second;
    ASSERT_EQ(avx2[i].first, label);
    ASSERT_EQ(got.size(), want.size()) << label;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0) << label;
  }
}

TEST(Optimize, LbfgsRingMatchesDequeReferenceExactly) {
#ifdef __FP_FAST_FMA
  GTEST_SKIP() << "FMA contraction may round the two optimizers differently, "
                  "and one ulp sends them down different paths";
#endif
  common::Rng rng(54);
  const TemplateCircuit tpl = random_template(3, rng);
  const HsCost cost(tpl, linalg::random_unitary(8, rng));
  const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
  const GradFn g = [&cost](const std::vector<double>& x, std::vector<double>& out) {
    cost.gradient(x, out);
  };
  std::vector<double> x0(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : x0) p = random_angle(rng);

  // Memory 8 is the default; 0, 1 and 3 make the ring empty or wrap early.
  for (int memory : {8, 0, 1, 3}) {
    OptimizeOptions opts;
    opts.lbfgs_memory = memory;
    const OptimizeResult got = lbfgs_minimize(f, g, x0, opts);
    const OptimizeResult want = ref::lbfgs_minimize(f, g, x0, opts);
    const std::string where = "memory " + std::to_string(memory);
    EXPECT_GT(got.iterations, memory + 1) << where;  // the history filled up
    EXPECT_EQ(got.iterations, want.iterations) << where;
    EXPECT_EQ(got.evaluations, want.evaluations) << where;
    ASSERT_EQ(got.params.size(), want.params.size());
    expect_same_doubles(got.params.data(), want.params.data(), got.params.size(), where);
    expect_same_doubles(&got.value, &want.value, 1, where);
  }
}

TEST(Cost, BorrowingConstructorKeepsCallersMatrix) {
  common::Rng rng(43);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  const Matrix target = linalg::random_unitary(4, rng);
  const HsCost borrowed(tpl, target);
  EXPECT_EQ(&borrowed.target(), &target);  // no dim² copy per search node

  const HsCost owned(tpl, linalg::random_unitary(4, rng));
  EXPECT_EQ(owned.target().rows(), 4u);
  EXPECT_NE(&owned.target(), &target);
}

// ---- parallel frontier -----------------------------------------------------

void expect_bit_identical(const ApproxCircuit& a, const ApproxCircuit& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.cnot_count, b.cnot_count);
  EXPECT_EQ(a.hs_distance, b.hs_distance);
  const auto& ga = a.circuit.gates();
  const auto& gb = b.circuit.gates();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].kind, gb[i].kind);
    EXPECT_EQ(ga[i].qubits, gb[i].qubits);
    ASSERT_EQ(ga[i].params.size(), gb[i].params.size());
    for (std::size_t p = 0; p < ga[i].params.size(); ++p)
      EXPECT_EQ(ga[i].params[p], gb[i].params[p]);
  }
}

void expect_bit_identical_runs(const QSearchResult& a,
                               const std::vector<ApproxCircuit>& sa,
                               const QSearchResult& b,
                               const std::vector<ApproxCircuit>& sb) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.nodes_optimized, b.nodes_optimized);
  expect_bit_identical(a.best, b.best);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) expect_bit_identical(sa[i], sb[i]);
}

TEST(QSearch, ParallelChildrenBitIdenticalToSerial) {
  common::Rng rng(44);
  const Matrix target = linalg::random_unitary(8, rng);
  common::ThreadPool pool1(1);
  common::ThreadPool pool4(4);

  auto run = [&](bool parallel, common::ThreadPool& pool,
                 std::vector<ApproxCircuit>& stream) {
    clear_synth_cache();  // each run searches; a hit would compare nothing
    QSearchOptions opts;
    opts.max_cnots = 3;
    opts.max_nodes = 10;
    opts.optimizer.max_iterations = 40;
    opts.parallel_children = parallel;
    opts.pool = &pool;
    opts.intermediate_callback = [&stream](const ApproxCircuit& c) {
      stream.push_back(c);
    };
    return qsearch_synthesize(target, 3, opts);
  };

  std::vector<ApproxCircuit> serial_stream, par1_stream, par4_stream;
  const QSearchResult serial = run(false, pool1, serial_stream);
  const QSearchResult par1 = run(true, pool1, par1_stream);
  const QSearchResult par4 = run(true, pool4, par4_stream);
  EXPECT_GT(serial.nodes_optimized, 1);
  expect_bit_identical_runs(serial, serial_stream, par1, par1_stream);
  expect_bit_identical_runs(serial, serial_stream, par4, par4_stream);
}

TEST(QSearch, ParallelMatchesSerialUnderMidSearchExpiry) {
  common::Rng rng(45);
  const Matrix target = linalg::random_unitary(8, rng);
  common::ThreadPool pool4(4);

  auto run = [&](bool parallel, std::vector<ApproxCircuit>& stream) {
    clear_synth_cache();  // each run searches; a hit would compare nothing
    const common::CancelToken token = common::CancelToken::make();
    QSearchOptions opts;
    opts.max_cnots = 4;
    opts.max_nodes = 20;
    opts.optimizer.max_iterations = 40;
    opts.parallel_children = parallel;
    opts.pool = &pool4;
    opts.deadline = common::Deadline::never().with_token(token);
    int calls = 0;
    opts.intermediate_callback = [&](const ApproxCircuit& c) {
      stream.push_back(c);
      // Deterministic mid-search expiry: cancellation is requested from the
      // merge-time callback, so it lands at the same search position in both
      // schedules.
      if (++calls == 4) token.request_cancel();
    };
    return qsearch_synthesize(target, 3, opts);
  };

  std::vector<ApproxCircuit> serial_stream, parallel_stream;
  const QSearchResult serial = run(false, serial_stream);
  const QSearchResult parallel = run(true, parallel_stream);
  EXPECT_TRUE(serial.timed_out);
  EXPECT_EQ(serial_stream.size(), 4u);
  expect_bit_identical_runs(serial, serial_stream, parallel, parallel_stream);
}

TEST(QSearch, ParallelMatchesSerialWithFaultsArmed) {
  struct FaultSpecGuard {
    ~FaultSpecGuard() { common::faults::install_spec(""); }
  } guard;
  common::faults::install_spec("synth:0.5,seed=7");

  // Firing is a pure function of (spec seed, site, synthesis seed); scan for
  // one seed of each kind.
  std::uint64_t firing = 0, clean = 0;
  bool have_firing = false, have_clean = false;
  for (std::uint64_t s = 0; s < 256 && !(have_firing && have_clean); ++s) {
    if (common::faults::fires(common::faults::Site::SynthFail, s)) {
      if (!have_firing) firing = s, have_firing = true;
    } else if (!have_clean) {
      clean = s, have_clean = true;
    }
  }
  ASSERT_TRUE(have_firing && have_clean);

  common::Rng rng(46);
  const Matrix target = linalg::random_unitary(8, rng);
  common::ThreadPool pool4(4);
  auto run = [&](bool parallel, std::uint64_t seed,
                 std::vector<ApproxCircuit>& stream) {
    clear_synth_cache();  // each run searches; a hit would compare nothing
    QSearchOptions opts;
    opts.max_cnots = 3;
    opts.max_nodes = 6;
    opts.optimizer.max_iterations = 30;
    opts.parallel_children = parallel;
    opts.pool = &pool4;
    opts.seed = seed;
    opts.intermediate_callback = [&stream](const ApproxCircuit& c) {
      stream.push_back(c);
    };
    return qsearch_synthesize(target, 3, opts);
  };

  // An armed, firing fault throws in both modes (before any cache/search).
  std::vector<ApproxCircuit> ignore;
  EXPECT_THROW(run(false, firing, ignore), common::SynthesisError);
  EXPECT_THROW(run(true, firing, ignore), common::SynthesisError);

  // A non-firing seed stays bit-identical with the harness armed.
  std::vector<ApproxCircuit> serial_stream, parallel_stream;
  const QSearchResult serial = run(false, clean, serial_stream);
  const QSearchResult parallel = run(true, clean, parallel_stream);
  expect_bit_identical_runs(serial, serial_stream, parallel, parallel_stream);
}

// ---- incremental qfactor ---------------------------------------------------
//
// The dense QFactor sweep, kept as the oracle for the incremental one that
// qfactor_optimize runs: the same sweep loop, but each slot's environment
// comes from two dense GEMMs and the overlap from a third. Same fixed point;
// per-entry rounding differs at the ~1e-12 level.

QFactorResult dense_qfactor_reference(const ir::QuantumCircuit& structure,
                                      const Matrix& target,
                                      const QFactorOptions& options) {
  using linalg::cplx;
  using ir::Gate;
  const ir::QuantumCircuit basis =
      transpile::decompose_to_cx_u3(structure).unitary_part();
  const int n = basis.num_qubits();
  const std::size_t dim = std::size_t{1} << n;
  const double d = static_cast<double>(dim);
  std::vector<Matrix> mats;
  std::vector<const Gate*> gates;
  for (const Gate& g : basis.gates()) {
    mats.push_back(g.matrix());
    gates.push_back(&g);
  }
  const std::size_t m = mats.size();

  QFactorResult result;
  const Matrix t_dag = target.adjoint();
  double prev_overlap = -1.0;
  std::vector<Matrix> suffix(m + 1);
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    ++result.sweeps;
    suffix[m] = Matrix::identity(dim);
    for (std::size_t k = m; k-- > 0;) {
      suffix[k] = suffix[k + 1];
      linalg::right_apply(suffix[k], mats[k], gates[k]->qubits);
    }

    // Dense oracle path: two GEMMs per slot, one for the overlap.
    Matrix b = Matrix::identity(dim);
    for (std::size_t k = 0; k < m; ++k) {
      if (gates[k]->qubits.size() == 1) {
        // M = B T† A with A = suffix[k+1]; Tr(T† A U_k B) = Tr(U_emb M).
        Matrix mmat = b * t_dag * suffix[k + 1];
        // Environment K[a][b] = sum_rest M[(b,rest),(a,rest)]; Tr = Tr(U K^T).
        const int qb = gates[k]->qubits[0];
        const std::size_t bit = std::size_t{1} << qb;
        Matrix kt(2, 2);  // K^T directly: kt[b][a] = K[a][b]
        for (std::size_t base = 0; base < dim; ++base) {
          if (base & bit) continue;
          kt(0, 0) += mmat(base, base);
          kt(0, 1) += mmat(base, base | bit);
          kt(1, 0) += mmat(base | bit, base);
          kt(1, 1) += mmat(base | bit, base | bit);
        }
        // kt currently holds K[a][b] at (b? ...) — M[(b,rest),(a,rest)] with
        // row index carrying b: kt(row=b, col=a) = K[a][b] = (K^T)(b, a). OK.
        mats[k] = best_unitary_for_environment(kt);
      }
      linalg::left_apply(b, mats[k], gates[k]->qubits);
    }

    // b now holds the full circuit unitary; overlap = |Tr(T† V)|.
    cplx acc{0.0, 0.0};
    const Matrix full = t_dag * b;
    for (std::size_t i = 0; i < dim; ++i) acc += full(i, i);
    const double overlap = std::abs(acc) / d;

    const double fid = std::min(1.0, overlap);
    result.hs_distance = std::sqrt(std::max(0.0, 1.0 - fid * fid));
    if (result.hs_distance < options.success_threshold) break;
    if (overlap - prev_overlap < options.tolerance && sweep > 0) break;
    prev_overlap = overlap;
  }

  ir::QuantumCircuit out(n, structure.name());
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

TEST(QFactor, IncrementalMatchesDenseSweep) {
  common::Rng rng(47);
  const Matrix target = linalg::random_unitary(8, rng);
  ir::QuantumCircuit structure(3);
  for (int b = 0; b < 6; ++b) {
    structure.cx(b % 2, (b % 2) + 1);
    structure.u3(0.2, 0.1, -0.1, b % 2);
    structure.u3(0.3, -0.2, 0.2, (b % 2) + 1);
  }
  QFactorOptions opts;
  opts.max_sweeps = 4;
  opts.tolerance = 0.0;  // run all sweeps in both sweeps

  const QFactorResult dense = dense_qfactor_reference(structure, target, opts);
  clear_synth_cache();  // run the incremental sweeps, not a stored result
  const QFactorResult inc = qfactor_optimize(structure, target, opts);

  EXPECT_EQ(dense.sweeps, inc.sweeps);
  EXPECT_NEAR(inc.hs_distance, dense.hs_distance, 1e-9);
  const auto& gd = dense.circuit.gates();
  const auto& gi = inc.circuit.gates();
  ASSERT_EQ(gd.size(), gi.size());
  for (std::size_t i = 0; i < gd.size(); ++i) {
    EXPECT_EQ(gd[i].kind, gi[i].kind);
    ASSERT_EQ(gd[i].params.size(), gi[i].params.size());
    for (std::size_t p = 0; p < gd[i].params.size(); ++p)
      EXPECT_NEAR(gd[i].params[p], gi[i].params[p], 1e-9)
          << "gate " << i << " param " << p;
  }
}

// ---- synthesis cache -------------------------------------------------------

TEST(Cache, RepeatedSearchHitsAndReplaysStream) {
  common::Rng rng(48);
  const Matrix target = linalg::random_unitary(8, rng);
  clear_synth_cache();
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 6;
  opts.optimizer.max_iterations = 30;

  const SynthCacheStats before = synth_cache_stats();
  std::vector<ApproxCircuit> first_stream, second_stream;
  opts.intermediate_callback = [&](const ApproxCircuit& c) {
    first_stream.push_back(c);
  };
  const QSearchResult first = qsearch_synthesize(target, 3, opts);
  opts.intermediate_callback = [&](const ApproxCircuit& c) {
    second_stream.push_back(c);
  };
  const QSearchResult second = qsearch_synthesize(target, 3, opts);
  const SynthCacheStats after = synth_cache_stats();

  EXPECT_GE(after.misses - before.misses, 1u);
  EXPECT_GE(after.hits - before.hits, 1u);
  ASSERT_FALSE(first_stream.empty());
  expect_bit_identical_runs(first, first_stream, second, second_stream);
}

TEST(Cache, QFactorRunsHit) {
  common::Rng rng(49);
  const Matrix target = linalg::random_unitary(4, rng);
  ir::QuantumCircuit structure(2);
  structure.cx(0, 1).u3(0.4, 0.1, -0.3, 0).u3(0.2, -0.2, 0.5, 1);
  clear_synth_cache();
  QFactorOptions opts;
  opts.max_sweeps = 8;
  const SynthCacheStats before = synth_cache_stats();
  const QFactorResult first = qfactor_optimize(structure, target, opts);
  const QFactorResult second = qfactor_optimize(structure, target, opts);
  const SynthCacheStats after = synth_cache_stats();
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_EQ(first.hs_distance, second.hs_distance);
  EXPECT_EQ(first.sweeps, second.sweeps);
}

TEST(Cache, ClearForcesAFreshSearch) {
  common::Rng rng(50);
  const Matrix target = linalg::random_unitary(4, rng);
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 4;
  const SynthCacheStats before = synth_cache_stats();
  clear_synth_cache();
  const QSearchResult first = qsearch_synthesize(target, 2, opts);
  clear_synth_cache();
  const QSearchResult second = qsearch_synthesize(target, 2, opts);
  const SynthCacheStats after = synth_cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(first.nodes_optimized, second.nodes_optimized);
  EXPECT_EQ(first.best.hs_distance, second.best.hs_distance);
  clear_synth_cache();
}

TEST(Cache, TimedOutRunIsNotStored) {
  common::Rng rng(52);
  const Matrix target = linalg::random_unitary(8, rng);
  clear_synth_cache();
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 2;
  opts.optimizer.max_iterations = 10;
  opts.deadline = common::Deadline::after_ms(0.0);
  const SynthCacheStats before = synth_cache_stats();
  EXPECT_TRUE(qsearch_synthesize(target, 3, opts).timed_out);
  EXPECT_EQ(synth_cache_stats().entries, 0u);

  // The deadline is not keyed: the same call without one misses (nothing
  // was stored), completes and is stored, and the next one hits.
  opts.deadline = common::Deadline::never();
  EXPECT_FALSE(qsearch_synthesize(target, 3, opts).timed_out);
  EXPECT_FALSE(qsearch_synthesize(target, 3, opts).timed_out);
  const SynthCacheStats after = synth_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.entries, 1u);
  clear_synth_cache();
}

// ---- the one cache key: every keyed option misses, every non-key hits -------

/// One call's observable output: the result's circuits and other fields, and
/// the stream its callback saw, if it had one.
struct Outcome {
  std::vector<ApproxCircuit> circuits;
  std::vector<double> fields;
  bool observed = false;
  std::vector<ApproxCircuit> stream;
};

template <class Call>
using Edits = std::vector<std::pair<const char*, std::function<void(Call&)>>>;

/// Runs `base` (a miss), then each edit of `base` once: an unkeyed edit must
/// hit and return the baseline's output bit for bit, and a keyed edit must
/// miss (so no two keyed edits alias each other either).
template <class Call, class Run>
void expect_key_sensitivity(const char* tool, const Call& base, const Edits<Call>& keyed,
                            const Edits<Call>& unkeyed, Run run) {
  SCOPED_TRACE(tool);
  clear_synth_cache();
  SynthCacheStats before = synth_cache_stats();
  const Outcome first = run(base);
  ASSERT_EQ(synth_cache_stats().misses - before.misses, 1u);
  ASSERT_FALSE(first.circuits.empty());
  if (first.observed) {
    ASSERT_FALSE(first.stream.empty());
  }

  auto run_edit = [&](const auto& edit, std::uint64_t hits, std::uint64_t misses) {
    SCOPED_TRACE(edit.first);
    Call call = base;
    edit.second(call);
    before = synth_cache_stats();
    const Outcome out = run(call);
    const SynthCacheStats after = synth_cache_stats();
    EXPECT_EQ(after.hits - before.hits, hits);
    EXPECT_EQ(after.misses - before.misses, misses);
    return out;
  };
  for (const auto& edit : unkeyed) {
    const Outcome out = run_edit(edit, 1, 0);
    EXPECT_EQ(out.fields, first.fields);
    ASSERT_EQ(out.circuits.size(), first.circuits.size());
    for (std::size_t i = 0; i < out.circuits.size(); ++i)
      expect_bit_identical(out.circuits[i], first.circuits[i]);
    // A call with a callback sees the recorded stream replayed whole.
    if (!out.observed) continue;
    ASSERT_TRUE(first.observed);
    ASSERT_EQ(out.stream.size(), first.stream.size());
    for (std::size_t i = 0; i < out.stream.size(); ++i)
      expect_bit_identical(out.stream[i], first.stream[i]);
  }
  for (const auto& edit : keyed) run_edit(edit, 0, 1);
  clear_synth_cache();
}

struct SearchCall {
  Matrix target;
  int num_qubits = 3;
  QSearchOptions options;
  const noise::CouplingMap* coupling = nullptr;
  bool callback = true;
};

struct FastCall {
  Matrix target;
  int num_qubits = 3;
  QFastOptions options;
  const noise::CouplingMap* coupling = nullptr;
  bool callback = true;
};

struct FactorCall {
  Matrix target;
  ir::QuantumCircuit structure;
  QFactorOptions options;
};

TEST(Cache, KeySensitivity) {
  common::Rng rng(51);
  const Matrix target3 = linalg::random_unitary(8, rng);
  const Matrix other3 = linalg::random_unitary(8, rng);
  const Matrix target2 = linalg::random_unitary(4, rng);
  const Matrix other2 = linalg::random_unitary(4, rng);
  const noise::CouplingMap line(3, {{0, 1}, {1, 2}});
  common::ThreadPool pool2(2);
  const common::Deadline far = common::Deadline::after_ms(600000.0);

  SearchCall search;
  search.target = target3;
  search.options.max_cnots = 2;
  search.options.max_nodes = 2;
  search.options.optimizer.max_iterations = 10;
  search.options.restarts_per_node = 1;
  expect_key_sensitivity<SearchCall>(
      "qsearch", search,
      {{"success_threshold", [](SearchCall& c) { c.options.success_threshold *= 2; }},
       {"depth_weight", [](SearchCall& c) { c.options.depth_weight *= 2; }},
       {"optimizer.tolerance", [](SearchCall& c) { c.options.optimizer.tolerance *= 2; }},
       {"max_cnots", [](SearchCall& c) { ++c.options.max_cnots; }},
       {"max_nodes", [](SearchCall& c) { ++c.options.max_nodes; }},
       {"optimizer.max_iterations", [](SearchCall& c) { ++c.options.optimizer.max_iterations; }},
       {"optimizer.lbfgs_memory", [](SearchCall& c) { ++c.options.optimizer.lbfgs_memory; }},
       {"restarts_per_node", [](SearchCall& c) { ++c.options.restarts_per_node; }},
       {"seed", [](SearchCall& c) { ++c.options.seed; }},
       {"edges", [&](SearchCall& c) { c.coupling = &line; }},
       {"target", [&](SearchCall& c) { c.target = other3; }}},
      {{"deadline", [&](SearchCall& c) { c.options.deadline = far; }},
       {"parallel_children", [](SearchCall& c) { c.options.parallel_children = false; }},
       {"pool", [&](SearchCall& c) { c.options.pool = &pool2; }},
       {"callback", [](SearchCall& c) { c.callback = false; }}},
      [](const SearchCall& c) {
        Outcome out;
        QSearchOptions options = c.options;
        out.observed = c.callback;
        if (c.callback)
          options.intermediate_callback = [&](const ApproxCircuit& a) { out.stream.push_back(a); };
        const QSearchResult r = qsearch_synthesize(c.target, c.num_qubits, options, c.coupling);
        out.circuits = {r.best};
        out.fields = {double(r.converged), double(r.timed_out), double(r.nodes_expanded),
                      double(r.nodes_optimized)};
        return out;
      });

  // Coarse passes run only when a callback is present, so QFast keys the
  // effective flag: the baseline (callback, flag off) runs none, and only
  // turning the flag on while a callback is present changes the key.
  FastCall fast;
  fast.target = target3;
  fast.options.max_blocks = 2;
  fast.options.optimizer.max_iterations = 10;
  fast.options.emit_coarse_passes = false;
  expect_key_sensitivity<FastCall>(
      "qfast", fast,
      {{"success_threshold", [](FastCall& c) { c.options.success_threshold *= 2; }},
       {"optimizer.tolerance", [](FastCall& c) { c.options.optimizer.tolerance *= 2; }},
       {"max_blocks", [](FastCall& c) { ++c.options.max_blocks; }},
       {"optimizer.max_iterations", [](FastCall& c) { ++c.options.optimizer.max_iterations; }},
       {"optimizer.lbfgs_memory", [](FastCall& c) { ++c.options.optimizer.lbfgs_memory; }},
       {"restarts_per_depth", [](FastCall& c) { ++c.options.restarts_per_depth; }},
       {"seed", [](FastCall& c) { ++c.options.seed; }},
       {"callback with emit_coarse_passes",
        [](FastCall& c) { c.options.emit_coarse_passes = true; }},
       {"edges", [&](FastCall& c) { c.coupling = &line; }},
       {"target", [&](FastCall& c) { c.target = other3; }}},
      {{"deadline", [&](FastCall& c) { c.options.deadline = far; }},
       {"callback", [](FastCall& c) { c.callback = false; }},
       {"emit_coarse_passes without a callback",
        [](FastCall& c) {
          c.callback = false;
          c.options.emit_coarse_passes = true;
        }}},
      [](const FastCall& c) {
        Outcome out;
        QFastOptions options = c.options;
        out.observed = c.callback;
        if (c.callback)
          options.partial_solution_callback = [&](const ApproxCircuit& a) {
            out.stream.push_back(a);
          };
        const QFastResult r = qfast_synthesize(c.target, c.num_qubits, options, c.coupling);
        out.circuits = {r.best};
        out.fields = {double(r.converged), double(r.timed_out), double(r.depths_tried)};
        return out;
      });

  ir::QuantumCircuit structure(2);
  structure.cx(0, 1).u3(0.4, 0.1, -0.3, 0).u3(0.2, -0.2, 0.5, 1);
  FactorCall factor;
  factor.target = target2;
  factor.structure = structure;
  factor.options.max_sweeps = 3;
  expect_key_sensitivity<FactorCall>(
      "qfactor", factor,
      {{"tolerance", [](FactorCall& c) { c.options.tolerance *= 2; }},
       {"success_threshold", [](FactorCall& c) { c.options.success_threshold *= 2; }},
       {"max_sweeps", [](FactorCall& c) { ++c.options.max_sweeps; }},
       {"structure angles",
        [](FactorCall& c) {
          ir::QuantumCircuit s(2);
          s.cx(0, 1).u3(0.5, 0.1, -0.3, 0).u3(0.2, -0.2, 0.5, 1);
          c.structure = s;
        }},
       {"target", [&](FactorCall& c) { c.target = other2; }}},
      {{"deadline", [&](FactorCall& c) { c.options.deadline = far; }}},
      [](const FactorCall& c) {
        Outcome out;
        const QFactorResult r = qfactor_optimize(c.structure, c.target, c.options);
        out.circuits = {ApproxCircuit{r.circuit, r.hs_distance, 0, "qfactor"}};
        out.fields = {double(r.converged), double(r.timed_out), double(r.sweeps)};
        return out;
      });
}

}  // namespace
}  // namespace qc::synth

namespace qc::synth {
namespace {

TEST(Invariants, KnownGateClasses) {
  // Local gates: 0 CNOTs.
  ir::QuantumCircuit local(2);
  local.u3(0.3, 0.1, -0.7, 0).u3(1.2, 0.4, 0.2, 1);
  EXPECT_EQ(minimal_cx_count(local.to_unitary()), 0);
  EXPECT_EQ(minimal_cx_count(linalg::Matrix::identity(4)), 0);

  // CX / CZ class: exactly 1.
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::CX, {}, 2)), 1);
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::CZ, {}, 2)), 1);

  // Generic ZZ rotation: 2 (between local and CX classes).
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::RZZ, {0.7}, 2)), 2);

  // SWAP: the classic 3-CNOT gate (gamma = iI — the case that separates
  // the tr^2 invariant from a naive |tr| test).
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::SWAP, {}, 2)), 3);

  // iSWAP class (Weyl (pi/4, pi/4, 0)): tr gamma = 0 but gamma^2 = +I — 2.
  ir::QuantumCircuit iswap_like(2);
  iswap_like.rxx(3.14159265358979 / 2, 0, 1);
  iswap_like.append(ir::Gate(ir::GateKind::RYY, {0, 1}, {3.14159265358979 / 2}));
  EXPECT_EQ(minimal_cx_count(iswap_like.to_unitary()), 2);
}

TEST(Invariants, LocalDressingDoesNotChangeTheCount) {
  common::Rng rng(31);
  for (const auto& kind : {ir::GateKind::CX, ir::GateKind::SWAP}) {
    ir::QuantumCircuit qc(2);
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 0);
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 1);
    qc.append(ir::Gate(kind, {0, 1}));
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 0);
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 1);
    const int bare = minimal_cx_count(ir::gate_matrix(kind, {}, 2));
    EXPECT_EQ(minimal_cx_count(qc.to_unitary()), bare) << ir::gate_name(kind);
  }
}

TEST(Invariants, HaarRandomNeedsThree) {
  common::Rng rng(32);
  int threes = 0;
  for (int i = 0; i < 12; ++i)
    threes += minimal_cx_count(linalg::random_unitary(4, rng)) == 3 ? 1 : 0;
  EXPECT_EQ(threes, 12);  // measure-zero exceptions
}

TEST(Invariants, AgreesWithQSearchOptimality) {
  // The depth QSearch certifies as optimal must equal the analytic bound.
  for (const auto& kind : {ir::GateKind::CZ, ir::GateKind::SWAP}) {
    const linalg::Matrix target = ir::gate_matrix(kind, {}, 2);
    QSearchOptions opts;
    opts.max_cnots = 3;
    opts.max_nodes = 40;
    const QSearchResult res = qsearch_synthesize(target, 2, opts);
    ASSERT_TRUE(res.converged) << ir::gate_name(kind);
    EXPECT_EQ(static_cast<int>(res.best.cnot_count), minimal_cx_count(target))
        << ir::gate_name(kind);
  }
}

TEST(Invariants, RejectsNonUnitary) {
  EXPECT_THROW(minimal_cx_count(linalg::Matrix(4, 4)), common::Error);
}

}  // namespace
}  // namespace qc::synth
