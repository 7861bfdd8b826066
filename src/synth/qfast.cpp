#include "synth/qfast.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"
#include "synth/cost.hpp"

namespace qc::synth {

namespace {

// Everything a run's result depends on besides the target, the edges and the
// seed, in a fixed order. Coarse passes only run when a callback is present,
// and their result seeds the full pass, so the *effective* setting is keyed.
std::vector<std::uint64_t> keyed_options(const QFastOptions& o) {
  return key_options(o.success_threshold, o.optimizer.tolerance, o.max_blocks,
                     o.optimizer.max_iterations, o.optimizer.lbfgs_memory, o.restarts_per_depth,
                     o.emit_coarse_passes && static_cast<bool>(o.partial_solution_callback));
}

QFastResult run_qfast(const linalg::Matrix& target, int num_qubits,
                      const QFastOptions& options,
                      const std::vector<std::pair<int, int>>& edges,
                      std::vector<ApproxCircuit>& stream) {
  common::Rng rng(options.seed);
  QFastResult result;
  static obs::Histogram& qfast_ns = obs::histogram("synth.qfast_ns");
  obs::Span span("synth.qfast", &qfast_ns);

  std::vector<double> warm;  // parameters carried across depths
  for (int depth = 1; depth <= options.max_blocks; ++depth) {
    if (options.deadline.expired()) {
      result.timed_out = true;
      break;
    }
    ++result.depths_tried;

    TemplateCircuit tpl(num_qubits);
    for (int d = 0; d < depth; ++d) {
      const auto& e = edges[static_cast<std::size_t>(d) % edges.size()];
      tpl.add_generic_block(e.first, e.second);
    }
    const HsCost cost(tpl, target);
    const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
    const GradFn g = [&cost](const std::vector<double>& x, std::vector<double>& out) {
      cost.gradient(x, out);
    };

    std::vector<double> x0 = warm;
    x0.resize(static_cast<std::size_t>(tpl.num_params()), 0.0);

    // Optionally surface a cheap coarse pass first (short optimization) —
    // these are the "circuits it checks along the way".
    if (options.emit_coarse_passes && options.partial_solution_callback) {
      OptimizeOptions coarse = options.optimizer;
      coarse.deadline = options.deadline;
      coarse.max_iterations = std::max(5, options.optimizer.max_iterations / 6);
      const OptimizeResult quick = lbfgs_minimize(f, g, x0, coarse);
      ApproxCircuit snap{tpl.instantiate(quick.params),
                         cost_to_hs_distance(quick.value), tpl.cx_count(), "qfast"};
      stream.push_back(snap);
      options.partial_solution_callback(snap);
      x0 = quick.params;
    }

    MultistartOptions ms;
    ms.inner = options.optimizer;
    ms.inner.deadline = options.deadline;  // per-iteration polling inside
    ms.num_starts = options.restarts_per_depth;
    common::Rng depth_rng = rng.split(static_cast<std::uint64_t>(depth));
    const OptimizeResult opt = multistart_minimize(f, g, x0, depth_rng, ms);
    warm = opt.params;

    ApproxCircuit record{tpl.instantiate(opt.params), cost_to_hs_distance(opt.value),
                         tpl.cx_count(), "qfast"};
    stream.push_back(record);
    if (options.partial_solution_callback) options.partial_solution_callback(record);

    const bool better = result.best.circuit.is_null() ||
                        record.hs_distance < result.best.hs_distance;
    if (better) result.best = std::move(record);

    if (result.best.hs_distance < options.success_threshold) {
      result.converged = true;
      break;
    }
  }
  span.arg("depths_tried", result.depths_tried);
  span.arg("converged", static_cast<int>(result.converged));
  return result;
}

}  // namespace

QFastResult qfast_synthesize(const linalg::Matrix& target, int num_qubits,
                             const QFastOptions& options,
                             const noise::CouplingMap* coupling) {
  QC_CHECK(num_qubits >= 2 && num_qubits <= 6);
  QC_CHECK(target.rows() == (std::size_t{1} << num_qubits));
  // Fault injection precedes the cache, as in qsearch.
  if (common::faults::enabled() &&
      common::faults::fires(common::faults::Site::SynthFail, options.seed)) {
    throw common::SynthesisError("injected synthesis fault (qfast, seed " +
                                 std::to_string(options.seed) + ")");
  }

  const SynthKey key{SynthTool::QFast, target.fingerprint(), 0, target.rows(), num_qubits,
                     synthesis_edges(num_qubits, coupling), keyed_options(options),
                     options.seed};
  return cached_synthesis<QFastResult>(
      key, options.partial_solution_callback,
      [&](std::vector<ApproxCircuit>& stream) {
        return run_qfast(target, num_qubits, options, key.edges, stream);
      });
}

}  // namespace qc::synth
