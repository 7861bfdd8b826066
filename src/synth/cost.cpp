#include "synth/cost.hpp"

#include <chrono>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "synth/kernels.hpp"

namespace qc::synth {

using linalg::cplx;
using linalg::Matrix;

namespace {

void check_target(const TemplateCircuit& tpl, const Matrix& target) {
  QC_CHECK(target.rows() == target.cols());
  QC_CHECK_MSG(target.rows() == (std::size_t{1} << tpl.num_qubits()),
               "target dimension must match template width");
  QC_CHECK_MSG(target.is_unitary(1e-6), "synthesis target must be unitary");
}

/// out := A† (resized if needed).
void fill_adjoint(const Matrix& a, Matrix& out) {
  const std::size_t n = a.rows();
  if (out.rows() != n || out.cols() != n) out = Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out(r, c) = std::conj(a(c, r));
}

void fill_identity(Matrix& m, std::size_t n) {
  if (m.rows() != n || m.cols() != n) m = Matrix(n, n);
  cplx* data = m.data();
  for (std::size_t i = 0; i < n * n; ++i) data[i] = cplx{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) data[i * n + i] = cplx{1.0, 0.0};
}

/// The number of qubits n of a boundary cost, checked against its 6n angles.
std::size_t boundary_qubits(const Matrix& target, const std::vector<double>& x) {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < target.rows()) ++n;
  QC_CHECK(x.size() == 6 * n);
  return n;
}

/// Boundary op t of 2n, in application order: t < n is A's U3 on qubit t
/// (column mixing), t >= n is B's U3 on qubit t - n (row mixing).
QAPPROX_SYNTH_INLINE void apply_boundary_op(Matrix& m, std::size_t n, std::size_t t,
                                            const U3Entries& g) {
  if (t < n) {
    detail::right_u3(m, static_cast<int>(t), g);
  } else {
    detail::left_u3(m, static_cast<int>(t - n), g);
  }
}

/// boundary_gap's body.
QAPPROX_SYNTH_INLINE double boundary_value(const Matrix& target, const Matrix& kept,
                                           const std::vector<double>& x, Matrix& scratch) {
  const std::size_t n = boundary_qubits(target, x);
  scratch = kept;
  for (std::size_t t = 0; t < 2 * n; ++t) {
    const double* p = x.data() + 3 * t;
    apply_boundary_op(scratch, n, t, u3_entries(p[0], p[1], p[2]));
  }
  return detail::fidelity_gap(target, scratch);
}

/// One probe of boundary_gradient: the gap with op t's angles set to p,
/// restarted from `start`, the product after ops 0..t-1.
QAPPROX_SYNTH_INLINE double boundary_probe(const Matrix& target, const Matrix& start,
                                           std::size_t n, std::size_t t, const double* p,
                                           const std::vector<U3Entries>& entries,
                                           Matrix& scratch) {
  scratch = start;
  apply_boundary_op(scratch, n, t, u3_entries(p[0], p[1], p[2]));
  for (std::size_t u = t + 1; u < 2 * n; ++u) apply_boundary_op(scratch, n, u, entries[u]);
  return detail::fidelity_gap(target, scratch);
}

/// boundary_gap_gradient's body. A probe of an angle of op t leaves ops
/// 0..t-1 as they are, so it restarts from the product after them
/// (checkpoints[t - 1], or `kept` for t = 0) and re-applies ops t..2n-1 only.
/// The checkpoints and the unprobed ops' entries are exactly the values
/// boundary_value computes on the way, so every probe is bit-identical to a
/// full boundary_gap call.
QAPPROX_SYNTH_INLINE void boundary_gradient(const Matrix& target, const Matrix& kept,
                                            const std::vector<double>& x, double h,
                                            std::vector<double>& grad,
                                            std::vector<Matrix>& checkpoints, Matrix& scratch) {
  const std::size_t n = boundary_qubits(target, x);
  grad.resize(x.size());
  if (n == 0) return;
  const std::size_t ops = 2 * n;
  std::vector<U3Entries> entries(ops);
  for (std::size_t t = 0; t < ops; ++t) {
    const double* p = x.data() + 3 * t;
    entries[t] = u3_entries(p[0], p[1], p[2]);
  }
  checkpoints.resize(ops - 1);
  for (std::size_t t = 1; t < ops; ++t) {
    checkpoints[t - 1] = t == 1 ? kept : checkpoints[t - 2];
    apply_boundary_op(checkpoints[t - 1], n, t - 1, entries[t - 1]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t t = i / 3;
    const Matrix& start = t == 0 ? kept : checkpoints[t - 1];
    double p[3] = {x[3 * t], x[3 * t + 1], x[3 * t + 2]};
    p[i % 3] = x[i] + h;
    const double fp = boundary_probe(target, start, n, t, p, entries, scratch);
    p[i % 3] = x[i] - h;
    const double fm = boundary_probe(target, start, n, t, p, entries, scratch);
    grad[i] = (fp - fm) / (2.0 * h);
  }
}

}  // namespace

HsCost::HsCost(const TemplateCircuit& tpl, const Matrix& target)
    : tpl_(tpl), target_(&target) {
  check_target(tpl_, *target_);
}

HsCost::HsCost(const TemplateCircuit& tpl, Matrix&& target)
    : tpl_(tpl),
      owned_(std::make_shared<const Matrix>(std::move(target))),
      target_(owned_.get()) {
  check_target(tpl_, *target_);
}

void HsCost::fill_slots(const std::vector<double>& params) const {
  QC_CHECK(params.size() == static_cast<std::size_t>(tpl_.num_params()));
  if (slots_at_.size() == params.size() &&
      (params.empty() ||
       std::memcmp(slots_at_.data(), params.data(), params.size() * sizeof(double)) == 0))
    return;
  // Slot i's angles are params[3i..3i+2]. With c, s = cos, sin(θ/2), which
  // may be negative, the θ-partial is
  //   ∂θ = ½ [[-s, -e^{iλ}c], [e^{iφ}c, -e^{i(φ+λ)}s]].
  slots_.resize(params.size() / 3);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const U3Trig t(params[3 * i], params[3 * i + 1], params[3 * i + 2]);
    SlotEntries& slot = slots_[i];
    slot.g = u3_entries(t);
    slot.dt00 = -0.5 * t.sin_half;
    slot.dt01 = -0.5 * cplx{t.cos_half * t.cos_lambda, t.cos_half * t.sin_lambda};
    slot.dt10 = 0.5 * cplx{t.cos_half * t.cos_phi, t.cos_half * t.sin_phi};
    slot.dt11 = -0.5 * cplx{t.sin_half * t.cos_sum, t.sin_half * t.sin_sum};
  }
  slots_at_ = params;
}

/// operator()'s body: the template's unitary from the slots' entries into
/// the scratch, then its fidelity gap to the target.
QAPPROX_SYNTH_INLINE double HsCost::value(const HsCost& cost) {
  const std::vector<SlotEntries>& slots = cost.slots_;
  detail::build_unitary(
      cost.tpl_,
      [&slots](const TemplateCircuit::Op& op) -> const U3Entries& {
        return slots[static_cast<std::size_t>(op.param_offset) / 3].g;
      },
      cost.scratch_);
  return detail::fidelity_gap(*cost.target_, cost.scratch_);
}

double HsCost::operator()(const std::vector<double>& params) const {
  fill_slots(params);
  return detail::dispatch<value>(*this);
}

double fidelity_gap(const Matrix& target, const Matrix& v) {
  return detail::dispatch<detail::fidelity_gap>(target, v);
}

double boundary_gap(const Matrix& target, const Matrix& kept, const std::vector<double>& x,
                    Matrix& scratch) {
  return detail::dispatch<boundary_value>(target, kept, x, scratch);
}

void boundary_gap_gradient(const Matrix& target, const Matrix& kept,
                           const std::vector<double>& x, double h, std::vector<double>& grad,
                           std::vector<Matrix>& checkpoints, Matrix& scratch) {
  detail::dispatch<boundary_gradient>(target, kept, x, h, grad, checkpoints, scratch);
}

double cost_to_hs_distance(double cost) {
  const double fid = 1.0 - cost;
  return std::sqrt(std::max(0.0, 1.0 - fid * fid));
}

double HsCost::hs_distance(const std::vector<double>& params) const {
  return cost_to_hs_distance((*this)(params));
}

QAPPROX_SYNTH_INLINE void HsCost::sweep(const HsCost& cost, const std::vector<double>& params,
                                        std::vector<double>& grad) {
  const TemplateCircuit& tpl = cost.tpl_;
  const Matrix& target = *cost.target_;
  Matrix& prefix = cost.prefix_;
  std::vector<Matrix>& suffix = cost.suffix_;
  const std::vector<SlotEntries>& slots = cost.slots_;
  std::vector<cplx>& dw = cost.dw_;
  grad.assign(params.size(), 0.0);
  if (params.empty()) return;

  const auto& ops = tpl.ops();
  const std::size_t m = ops.size();
  const std::size_t dim = target.rows();

  // Backward pass: suffix[k] = O_{m-1}···O_k with suffix[m] = I, built by
  // column ops (suffix[k] = suffix[k+1] · O_k). O(m·dim²).
  suffix.resize(m + 1);
  fill_identity(suffix[m], dim);
  for (std::size_t k = m; k-- > 0;) {
    suffix[k] = suffix[k + 1];
    const auto& op = ops[k];
    if (op.is_cx) {
      detail::right_cx(suffix[k], op.a, op.b);
      continue;
    }
    detail::right_u3(suffix[k], op.a, slots[static_cast<std::size_t>(op.param_offset) / 3].g);
  }

  // Forward pass: prefix = L_k = O_{k-1}···O_0 · T†, advanced by row ops.
  // At each U3 slot, ∂W/∂angle = Tr(L_k · S_{k+1} · ∂O_k); the trace only
  // touches the 2x2 environment of (L_k · S_{k+1}) on the gate's qubit,
  //   E(a,b) = Σ_rest (L_k · S_{k+1})(rest|a·bit, rest|b·bit),
  // extracted directly from L and S in O(dim²) without forming the product.
  // Its eight sums run in the lanes of detail::accumulate_environment, each
  // in the scalar order.
  fill_adjoint(target, prefix);
  dw.assign(params.size(), cplx{0.0, 0.0});
  const std::size_t stride = 2 * dim;
  for (std::size_t k = 0; k < m; ++k) {
    const auto& op = ops[k];
    if (op.is_cx) {
      detail::left_cx(prefix, op.a, op.b);
      continue;
    }
    const SlotEntries& slot = slots[static_cast<std::size_t>(op.param_offset) / 3];
    const U3Entries& g = slot.g;

    const double* l = reinterpret_cast<const double*>(prefix.data());
    const double* s = reinterpret_cast<const double*>(suffix[k + 1].data());
    const std::size_t bit = std::size_t{1} << op.a;
    detail::Environment env;
    for (std::size_t rest = 0; rest < dim; ++rest) {
      if (rest & bit) continue;
      detail::accumulate_environment(l + rest * stride, l + (rest | bit) * stride, s, stride,
                                     rest, rest | bit, dim, env);
    }
    const cplx e00{env.row0[0], env.row0[1]}, e01{env.row0[2], env.row0[3]};
    const cplx e10{env.row1[0], env.row1[1]}, e11{env.row1[2], env.row1[3]};

    // Tr(M · D_emb) = Σ_{a,b} E(a,b) D(b,a) for a one-qubit D = [[d00,d01],
    // [d10,d11]]; with ∂θ above and
    //   ∂φ = [[0, 0], [i·g10, i·g11]]
    //   ∂λ = [[0, i·g01], [0, i·g11]]
    const cplx i_unit{0.0, 1.0};
    const cplx dt00{slot.dt00, 0.0};
    dw[op.param_offset] = e00 * dt00 + e01 * slot.dt10 + e10 * slot.dt01 + e11 * slot.dt11;
    dw[op.param_offset + 1] = (e01 * g.g10 + e11 * g.g11) * i_unit;
    dw[op.param_offset + 2] = (e10 * g.g01 + e11 * g.g11) * i_unit;

    detail::left_u3(prefix, op.a, g);
  }

  // After the full forward pass, prefix = V·T†, so W = Tr(T†V) = Tr(prefix).
  const cplx w = prefix.trace();
  const double abs_w = std::abs(w);
  const double d = static_cast<double>(dim);
  // Matches operator()'s clamp (fid capped at 1) and avoids the |W| = 0
  // non-differentiability: both regimes have zero gradient.
  if (abs_w <= 0.0 || abs_w / d >= 1.0) return;
  const cplx factor = std::conj(w) * (-1.0 / (d * abs_w));
  for (std::size_t p = 0; p < grad.size(); ++p)
    grad[p] = (factor * dw[p]).real();
}

void HsCost::gradient(const std::vector<double>& params,
                      std::vector<double>& grad) const {
  const bool timed = obs::timing_enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  fill_slots(params);
  detail::dispatch<sweep>(*this, params, grad);
  if (timed) {
    static obs::Histogram& hist = obs::histogram("synth.gradient_ns");
    hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

}  // namespace qc::synth
