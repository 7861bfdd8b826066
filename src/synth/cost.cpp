#include "synth/cost.hpp"

#include <chrono>
#include <cmath>

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

/// HsCost::operator()'s body: the template's unitary into `scratch`, then
/// its fidelity gap to `target`.
QAPPROX_SYNTH_INLINE double cost_value(const TemplateCircuit& tpl, const Matrix& target,
                                       const std::vector<double>& params, Matrix& scratch) {
  detail::unitary(tpl, params, scratch);
  return detail::fidelity_gap(target, scratch);
}

/// boundary_gap's body.
QAPPROX_SYNTH_INLINE double boundary_value(const Matrix& target, const Matrix& kept,
                                           const std::vector<double>& x, Matrix& scratch) {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < target.rows()) ++n;
  QC_CHECK(x.size() == 6 * n);
  scratch = kept;
  for (std::size_t q = 0; q < n; ++q) {
    const double* p = x.data() + 3 * q;
    detail::right_u3(scratch, static_cast<int>(q), u3_entries(p[0], p[1], p[2]));
  }
  for (std::size_t q = 0; q < n; ++q) {
    const double* p = x.data() + 3 * (n + q);
    detail::left_u3(scratch, static_cast<int>(q), u3_entries(p[0], p[1], p[2]));
  }
  return detail::fidelity_gap(target, scratch);
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

double HsCost::operator()(const std::vector<double>& params) const {
  return detail::dispatch<cost_value>(tpl_, *target_, params, scratch_);
}

double fidelity_gap(const Matrix& target, const Matrix& v) {
  return detail::dispatch<detail::fidelity_gap>(target, v);
}

double boundary_gap(const Matrix& target, const Matrix& kept, const std::vector<double>& x,
                    Matrix& scratch) {
  return detail::dispatch<boundary_value>(target, kept, x, scratch);
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
  std::vector<SlotEntries>& slots = cost.slots_;
  std::vector<cplx>& dw = cost.dw_;
  QC_CHECK(params.size() == static_cast<std::size_t>(tpl.num_params()));
  grad.assign(params.size(), 0.0);
  if (params.empty()) return;

  const auto& ops = tpl.ops();
  const std::size_t m = ops.size();
  const std::size_t dim = target.rows();

  // Backward pass: suffix[k] = O_{m-1}···O_k with suffix[m] = I, built by
  // column ops (suffix[k] = suffix[k+1] · O_k). O(m·dim²). Each U3 slot's
  // entries and θ-partial are evaluated here, once, for both passes:
  //   ∂θ = ½ [[-s, -e^{iλ}c], [e^{iφ}c, -e^{i(φ+λ)}s]]
  // with c, s = cos, sin(θ/2), which may be negative.
  slots.resize(params.size() / 3);
  suffix.resize(m + 1);
  fill_identity(suffix[m], dim);
  for (std::size_t k = m; k-- > 0;) {
    suffix[k] = suffix[k + 1];
    const auto& op = ops[k];
    if (op.is_cx) {
      detail::right_cx(suffix[k], op.a, op.b);
      continue;
    }
    const U3Trig t(params[op.param_offset], params[op.param_offset + 1],
                   params[op.param_offset + 2]);
    SlotEntries& slot = slots[static_cast<std::size_t>(op.param_offset) / 3];
    slot.g = u3_entries(t);
    slot.dt00 = -0.5 * t.sin_half;
    slot.dt01 = -0.5 * cplx{t.cos_half * t.cos_lambda, t.cos_half * t.sin_lambda};
    slot.dt10 = 0.5 * cplx{t.cos_half * t.cos_phi, t.cos_half * t.sin_phi};
    slot.dt11 = -0.5 * cplx{t.sin_half * t.cos_sum, t.sin_half * t.sin_sum};
    detail::right_u3(suffix[k], op.a, slot.g);
  }

  // Forward pass: prefix = L_k = O_{k-1}···O_0 · T†, advanced by row ops.
  // At each U3 slot, ∂W/∂angle = Tr(L_k · S_{k+1} · ∂O_k); the trace only
  // touches the 2x2 environment of (L_k · S_{k+1}) on the gate's qubit,
  //   E(a,b) = Σ_rest (L_k · S_{k+1})(rest|a·bit, rest|b·bit),
  // extracted directly from L and S in O(dim²) without forming the product.
  // The products are written out on the interleaved doubles, as in rowops.
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
    double e00r = 0.0, e00i = 0.0, e01r = 0.0, e01i = 0.0;
    double e10r = 0.0, e10i = 0.0, e11r = 0.0, e11i = 0.0;
    for (std::size_t rest = 0; rest < dim; ++rest) {
      if (rest & bit) continue;
      const double* lrow0 = l + rest * stride;
      const double* lrow1 = l + (rest | bit) * stride;
      const std::size_t c0 = 2 * rest;
      const std::size_t c1 = 2 * (rest | bit);
      for (std::size_t j = 0; j < dim; ++j) {
        const double* srow = s + j * stride;
        const double s0r = srow[c0], s0i = srow[c0 + 1];  // S(j, rest)
        const double s1r = srow[c1], s1i = srow[c1 + 1];  // S(j, rest | bit)
        const double l0r = lrow0[2 * j], l0i = lrow0[2 * j + 1];
        const double l1r = lrow1[2 * j], l1i = lrow1[2 * j + 1];
        e00r += l0r * s0r - l0i * s0i;
        e00i += l0r * s0i + l0i * s0r;
        e01r += l0r * s1r - l0i * s1i;
        e01i += l0r * s1i + l0i * s1r;
        e10r += l1r * s0r - l1i * s0i;
        e10i += l1r * s0i + l1i * s0r;
        e11r += l1r * s1r - l1i * s1i;
        e11i += l1r * s1i + l1i * s1r;
      }
    }
    const cplx e00{e00r, e00i}, e01{e01r, e01i}, e10{e10r, e10i}, e11{e11r, e11i};

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
