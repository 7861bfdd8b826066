#include "synth/reducer.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "metrics/process.hpp"
#include "obs/obs.hpp"
#include "synth/cost.hpp"
#include "transpile/decompose.hpp"

namespace qc::synth {

using ir::Gate;
using ir::GateKind;
using ir::QuantumCircuit;
using linalg::Matrix;

namespace {

/// Cost of 1 - |Tr(T† (B M A))| / d over boundary-layer params
/// x = [A params (3n), B params (3n)].
class BoundaryCost {
 public:
  BoundaryCost(Matrix target, Matrix kept) : target_(std::move(target)), kept_(std::move(kept)) {}

  double operator()(const std::vector<double>& x) const {
    return boundary_gap(target_, kept_, x, scratch_);
  }

  void gradient(const std::vector<double>& x, std::vector<double>& grad) const {
    constexpr double h = 1e-6;
    boundary_gap_gradient(target_, kept_, x, h, grad, checkpoints_, scratch_);
  }

 private:
  Matrix target_;
  Matrix kept_;
  mutable Matrix scratch_;
  mutable std::vector<Matrix> checkpoints_;
};

/// Deterministically chooses `k` of `total` CX indices. Variant 0 is evenly
/// spaced; others are seeded random subsets.
std::vector<std::size_t> choose_subset(std::size_t total, std::size_t k, int variant,
                                       common::Rng& rng) {
  std::vector<std::size_t> idx;
  if (k >= total) {
    idx.resize(total);
    for (std::size_t i = 0; i < total; ++i) idx[i] = i;
    return idx;
  }
  if (k == 0) return idx;
  if (variant == 0) {
    for (std::size_t i = 0; i < k; ++i)
      idx.push_back((i * total) / k + (total / (2 * k)));
    for (auto& v : idx) v = std::min(v, total - 1);
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    return idx;
  }
  std::set<std::size_t> chosen;
  while (chosen.size() < k) chosen.insert(rng.uniform_int(total));
  return {chosen.begin(), chosen.end()};
}

}  // namespace

std::vector<ApproxCircuit> reduce_circuit(const QuantumCircuit& reference,
                                          const ReducerOptions& options,
                                          bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (common::faults::enabled() &&
      common::faults::fires(common::faults::Site::SynthFail, options.seed)) {
    throw common::SynthesisError("injected synthesis fault (reducer, seed " +
                                 std::to_string(options.seed) + ")");
  }
  static obs::Histogram& reducer_ns = obs::histogram("synth.reducer_ns");
  obs::Span span("synth.reducer", &reducer_ns);
  const QuantumCircuit basis = transpile::decompose_to_cx_u3(reference).unitary_part();
  const Matrix target = basis.to_unitary();
  const int n = basis.num_qubits();

  // Positions of CX gates in the basis circuit.
  std::vector<std::size_t> cx_positions;
  for (std::size_t i = 0; i < basis.size(); ++i)
    if (basis.gate(i).kind == GateKind::CX) cx_positions.push_back(i);

  common::Rng rng(options.seed);
  std::vector<ApproxCircuit> out;
  std::set<std::pair<std::size_t, int>> seen;  // (cx count, variant) dedup

  for (double frac : options.keep_fractions) {
    QC_CHECK(frac >= 0.0 && frac <= 1.0);
    const auto k = static_cast<std::size_t>(
        std::llround(frac * static_cast<double>(cx_positions.size())));
    const int variants = (k == 0 || k == cx_positions.size()) ? 1 : options.variants_per_size;

    for (int variant = 0; variant < variants; ++variant) {
      if (options.deadline.expired()) {
        if (timed_out != nullptr) *timed_out = true;
        break;
      }
      if (!seen.insert({k, variant}).second) continue;
      common::Rng subset_rng = rng.split((k << 8) + static_cast<std::uint64_t>(variant));
      const auto kept_cx = choose_subset(cx_positions.size(), k, variant, subset_rng);

      const bool full_mode = static_cast<int>(kept_cx.size()) <= options.full_reopt_max_cx &&
                             n <= options.full_reopt_max_qubits;

      ApproxCircuit record;
      record.source = "reducer";

      if (full_mode) {
        // QSearch-shaped template on the kept CX skeleton, fully optimized.
        TemplateCircuit tpl = TemplateCircuit::u3_layer(n);
        for (std::size_t ci : kept_cx) {
          const Gate& g = basis.gate(cx_positions[ci]);
          tpl.add_qsearch_block(g.qubits[0], g.qubits[1]);
        }
        const HsCost cost(tpl, target);
        const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
        const GradFn grad = [&cost](const std::vector<double>& x,
                                    std::vector<double>& gr) { cost.gradient(x, gr); };
        MultistartOptions ms;
        ms.inner = options.optimizer;
        ms.inner.deadline = options.deadline;  // per-iteration polling inside
        ms.num_starts = 2;
        const OptimizeResult opt =
            multistart_minimize(f, grad, tpl.identity_params(), subset_rng, ms);
        record.circuit = tpl.instantiate(opt.params);
        record.hs_distance = cost_to_hs_distance(opt.value);
        record.cnot_count = tpl.cx_count();
      } else {
        // Frozen interior (original angles, surviving CX only) + optimized
        // boundary layers.
        std::set<std::size_t> kept_cx_pos;
        for (std::size_t ci : kept_cx) kept_cx_pos.insert(cx_positions[ci]);
        QuantumCircuit interior(n);
        for (std::size_t i = 0; i < basis.size(); ++i) {
          const Gate& g = basis.gate(i);
          if (g.kind == GateKind::CX && !kept_cx_pos.count(i)) continue;
          interior.append(g);
        }
        BoundaryCost cost(target, interior.to_unitary());
        const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
        const GradFn grad = [&cost](const std::vector<double>& x,
                                    std::vector<double>& gr) { cost.gradient(x, gr); };
        std::vector<double> x0(static_cast<std::size_t>(6 * n), 0.0);
        OptimizeOptions inner = options.optimizer;
        inner.deadline = options.deadline;
        const OptimizeResult opt = lbfgs_minimize(f, grad, x0, inner);

        QuantumCircuit bound(n);
        for (int q = 0; q < n; ++q)
          bound.u3(opt.params[3 * q], opt.params[3 * q + 1], opt.params[3 * q + 2], q);
        bound.append(interior);
        for (int q = 0; q < n; ++q)
          bound.u3(opt.params[3 * (n + q)], opt.params[3 * (n + q) + 1],
                   opt.params[3 * (n + q) + 2], q);
        record.circuit = std::move(bound);
        record.hs_distance = cost_to_hs_distance(opt.value);
        record.cnot_count = record.circuit.count(GateKind::CX);
      }

      if (options.callback) options.callback(record);
      out.push_back(std::move(record));
    }
  }

  std::sort(out.begin(), out.end(), [](const ApproxCircuit& a, const ApproxCircuit& b) {
    if (a.cnot_count != b.cnot_count) return a.cnot_count < b.cnot_count;
    return a.hs_distance < b.hs_distance;
  });
  span.arg("variants", out.size());
  return out;
}

}  // namespace qc::synth
