#include "sim/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "linalg/embed.hpp"
#include "metrics/distribution.hpp"
#include "noise/readout.hpp"
#include "obs/obs.hpp"
#include "sim/density_matrix.hpp"

namespace qc::sim {

namespace {

std::vector<noise::ReadoutError> readout_slice(const noise::NoiseModel& model, int n) {
  const auto& all = model.readout_errors();
  QC_CHECK(all.size() >= static_cast<std::size_t>(n));
  return {all.begin(), all.begin() + n};
}

/// Folds `u` on `qubits` into `prev` (prev runs first) when the two share a
/// qubit and their union stays within `max_qubits`, so the fused matrix still
/// dispatches to a specialized kernel. Returns false without touching `prev`
/// otherwise.
bool fuse_into(CompiledStep& prev, const linalg::Matrix& u,
               const std::vector<int>& qubits, std::size_t max_qubits) {
  std::vector<int> merged = prev.qubits;
  bool overlap = false;
  for (int q : qubits) {
    if (std::find(merged.begin(), merged.end(), q) != merged.end())
      overlap = true;
    else
      merged.push_back(q);
  }
  if (!overlap || merged.size() > max_qubits) return false;
  std::sort(merged.begin(), merged.end());
  const auto positions = [&merged](const std::vector<int>& qs) {
    std::vector<int> out;
    out.reserve(qs.size());
    for (int q : qs)
      out.push_back(static_cast<int>(
          std::find(merged.begin(), merged.end(), q) - merged.begin()));
    return out;
  };
  const int k = static_cast<int>(merged.size());
  prev.unitary = linalg::embed(u, positions(qubits), k) *
                 linalg::embed(prev.unitary, positions(prev.qubits), k);
  prev.qubits = std::move(merged);
  ++prev.source_count;
  return true;
}

}  // namespace

CompiledCircuit compile_noisy_circuit(const ir::QuantumCircuit& circuit,
                                      const noise::NoiseModel& model,
                                      const CompileOptions& options) {
  QC_CHECK_MSG(circuit.num_qubits() <= model.num_qubits(),
               "circuit wider than the noise model's device");
  static obs::Histogram& compile_ns = obs::histogram("sim.compile_ns");
  obs::Span span("sim.compile", &compile_ns);
  CompiledCircuit compiled;
  compiled.num_qubits = circuit.num_qubits();
  compiled.readout = readout_slice(model, circuit.num_qubits());
  const std::size_t max_fuse = static_cast<std::size_t>(
      std::clamp(options.max_fuse_qubits, 0, 4));
  const std::size_t dim = std::size_t{1} << compiled.num_qubits;
  // The model's noise for a gate depends only on its qubits: ask once per
  // distinct tuple, on first sight, and convert and plan each list once.
  std::map<std::vector<int>, std::size_t> list_of;  // gate qubits -> list index
  const auto noise_list = [&](const ir::Gate& g) {
    const auto [it, fresh] = list_of.try_emplace(g.qubits, kNoNoise);
    if (!fresh) return it->second;
    std::vector<CompiledNoiseOp> list;
    for (noise::NoiseOp& op : model.ops_for_gate(g)) {
      // Crosstalk ops can touch spectator qubits outside the circuit's
      // register (device qubits the circuit never uses); those spectators
      // start in |0> and are traced out implicitly, so skip them.
      bool in_range = true;
      for (int q : op.qubits)
        if (q >= circuit.num_qubits()) in_range = false;
      if (!in_range) continue;
      CompiledNoiseOp cop;
      cop.qubits = op.qubits;
      cop.mixed_unitary = op.channel.mixed_unitary_form(cop.probs, cop.operators);
      if (!cop.mixed_unitary) cop.operators = op.channel.kraus();
      // Plans are per span: the same plan serves a state vector and a
      // density matrix of this width.
      cop.plans.reserve(cop.operators.size());
      for (const linalg::Matrix& k : cop.operators)
        cop.plans.push_back(linalg::plan_kernel(k, cop.qubits, dim));
      list.push_back(std::move(cop));
    }
    if (!list.empty()) {
      it->second = compiled.noise_lists.size();
      compiled.noise_lists.push_back(std::move(list));
    }
    return it->second;
  };
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind == ir::GateKind::Measure || g.kind == ir::GateKind::Barrier) continue;
    ++compiled.source_gates;
    CompiledStep step{g.qubits, g.matrix(), noise_list(g)};
    // Fusion: a preceding step with no noise draws nothing from the RNG, so
    // folding it into this step preserves the shot-replay stream exactly.
    if (max_fuse > 0 && !compiled.steps.empty() &&
        compiled.steps.back().noise == kNoNoise &&
        fuse_into(compiled.steps.back(), step.unitary, step.qubits, max_fuse)) {
      compiled.steps.back().noise = step.noise;
      ++compiled.fused_gates;
      continue;
    }
    compiled.steps.push_back(std::move(step));
  }
  // Hoist what every replay would otherwise recompute: the kernel plan of
  // each step unitary, for the program's span.
  for (CompiledStep& step : compiled.steps) {
    step.plan = linalg::plan_kernel(step.unitary, step.qubits, dim);
    compiled.kernel_counts.add(step.plan.kind);
    if (step.source_count > 1 && step.qubits.size() < compiled.fused_blocks_by_k.size())
      ++compiled.fused_blocks_by_k[step.qubits.size()];
  }
  // Fusion effectiveness across the whole process; the per-run view lives in
  // RunRecord::{fused_gates, kernel_counts}.
  struct FusionCounters {
    obs::Counter& compiles{obs::counter("sim.compile.circuits")};
    obs::Counter& source{obs::counter("sim.compile.source_gates")};
    obs::Counter& fused{obs::counter("sim.compile.fused_gates")};
    obs::Counter& steps{obs::counter("sim.compile.steps")};
    obs::Counter& noise_lists{obs::counter("sim.compile.noise_lists")};
    obs::Counter& blocks_k1{obs::counter("sim.compile.fused_blocks.k1")};
    obs::Counter& blocks_k2{obs::counter("sim.compile.fused_blocks.k2")};
    obs::Counter& blocks_k3{obs::counter("sim.compile.fused_blocks.k3")};
    obs::Counter& blocks_k4{obs::counter("sim.compile.fused_blocks.k4")};
  };
  static FusionCounters c;
  c.compiles.add(1);
  c.source.add(compiled.source_gates);
  c.fused.add(compiled.fused_gates);
  c.steps.add(compiled.steps.size());
  c.noise_lists.add(compiled.noise_lists.size());
  c.blocks_k1.add(compiled.fused_blocks_by_k[1]);
  c.blocks_k2.add(compiled.fused_blocks_by_k[2]);
  c.blocks_k3.add(compiled.fused_blocks_by_k[3]);
  c.blocks_k4.add(compiled.fused_blocks_by_k[4]);
  if (span.active()) {
    span.arg("qubits", compiled.num_qubits);
    span.arg("source_gates", compiled.source_gates);
    span.arg("fused_gates", compiled.fused_gates);
    span.arg("steps", compiled.steps.size());
    span.arg("noise_lists", compiled.noise_lists.size());
  }
  return compiled;
}

namespace {

/// 2x2 all-NaN operator used by the StateNan fault site: one application
/// poisons every amplitude, exactly like a broken kernel would.
const linalg::Matrix& nan_matrix() {
  static const linalg::Matrix m = [] {
    const auto nan = std::numeric_limits<double>::quiet_NaN();
    linalg::Matrix out(2, 2);
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < 2; ++c) out(r, c) = linalg::cplx(nan, nan);
    return out;
  }();
  return m;
}

/// Norm-drift guard: NaN, infinity, and drift all fail the negated
/// comparison, so a corrupt state is reported instead of sampled.
void check_state_norm(double norm_squared) {
  if (std::fabs(norm_squared - 1.0) <= kNormDriftTolerance) return;
  std::ostringstream os;
  os << "trajectory state corrupt: |psi|^2 = " << norm_squared
     << " at a shot-tree leaf (norm-drift guard, tolerance " << kNormDriftTolerance
     << ")";
  throw common::SimulationError(os.str());
}

/// Depth-first shot tree over one shot range (see trajectory_counts_streamed).
/// Every shot keeps its own RNG stream; a group of shots shares one state until
/// their draws at some noise op differ, then splits by the branch picked.
class ShotTree {
 public:
  ShotTree(const CompiledCircuit& compiled, std::size_t shot_begin,
           std::size_t shot_end, std::uint64_t seed, const common::Deadline& deadline)
      : compiled_(compiled),
        shot_begin_(shot_begin),
        seed_(seed),
        picks_(shot_end - shot_begin),
        poller_(deadline, /*stride=*/1),
        counts_(std::size_t{1} << compiled.num_qubits, 0) {
    const std::size_t n = shot_end - shot_begin;
    rngs_.reserve(n);
    ids_.reserve(n);
    grouped_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      rngs_.emplace_back(common::derive_stream_seed(seed, shot_begin + i));
      ids_.push_back(i);
    }
    // Bind every step unitary and noise operator and sum every mixed-unitary
    // weight vector once for the whole tree; every group's applications and
    // branch draws reuse them.
    steps_bound_.reserve(compiled.steps.size());
    for (const CompiledStep& step : compiled.steps)
      steps_bound_.push_back(linalg::bind_kernel(step.plan, step.unitary, step.qubits));
    std::size_t operators = 0;
    for (const std::vector<CompiledNoiseOp>& list : compiled.noise_lists)
      for (const CompiledNoiseOp& op : list) operators += op.operators.size();
    bound_.reserve(operators);
    for (const std::vector<CompiledNoiseOp>& list : compiled.noise_lists) {
      std::vector<BoundOp>& ops = bound_ops_.emplace_back();
      for (const CompiledNoiseOp& op : list) {
        ops.push_back({bound_.size(),
                       op.mixed_unitary ? common::Rng::discrete_total(op.probs) : 0.0});
        for (std::size_t i = 0; i < op.operators.size(); ++i)
          bound_.push_back(linalg::bind_kernel(op.plans[i], op.operators[i], op.qubits));
      }
    }
  }

  void run() {
    if (ids_.empty()) return;
    levels_.emplace_back(compiled_.num_qubits);
    evolve(0, ids_.size(), /*depth=*/0, /*step=*/0, /*op=*/0);
  }

  std::vector<std::uint64_t>& counts() { return counts_; }
  std::size_t completed() const { return completed_; }
  std::size_t leaves() const { return leaves_; }

 private:
  /// One noise op of the program as this tree applies it.
  struct BoundOp {
    std::size_t first;  // its operators' bindings: bound_[first, first + count)
    double total;       // mixed unitary: the checked sum of its weights
  };

  /// What a group at one split depth owns: its state and the Born weights of
  /// its current Kraus op. Children evolve one level deeper, so the weights
  /// still hold this op's values when each child returns.
  struct Level {
    explicit Level(int num_qubits) : state(num_qubits) {}
    StateVector state;
    std::vector<double> weights;
  };

  /// Evolves the group ids_[lo, hi) on levels_[depth] from noise op `op` of
  /// step `step` (op 0: the step's unitary first) to the end of the program,
  /// then samples its shots.
  void evolve(std::size_t lo, std::size_t hi, std::size_t depth, std::size_t step,
              std::size_t op) {
    Level& level = levels_[depth];
    StateVector& state = level.state;
    for (; step < compiled_.steps.size(); ++step, op = 0) {
      const CompiledStep& s = compiled_.steps[step];
      if (op == 0) state.apply_bound(steps_bound_[step]);
      if (s.noise == kNoNoise) continue;
      const std::vector<CompiledNoiseOp>& list = compiled_.noise_lists[s.noise];
      for (; op < list.size(); ++op) {
        const CompiledNoiseOp& nop = list[op];
        const BoundOp& bop = bound_ops_[s.noise][op];
        double total = bop.total;
        const std::vector<double>& weights =
            nop.mixed_unitary ? nop.probs : born_weights(level, nop, bop, total);
        bool split = false;
        for (std::size_t i = lo; i < hi; ++i) {
          picks_[ids_[i]] = rngs_[ids_[i]].discrete(weights, total);
          split = split || picks_[ids_[i]] != picks_[ids_[lo]];
        }
        if (split) {
          // Group the ids by pick. Every run but the largest gets a copy of
          // the state and is finished first; the largest then continues here
          // in place. A non-largest run holds at most half its group, so the
          // split depth, hence the number of live states (one per depth), is
          // at most floor(log2(range)) + 1, plus the Born-weight scratch.
          group_by_pick(lo, hi, weights.size());
          std::size_t keep_lo = lo, keep_hi = lo;
          for (std::size_t a = lo, b; a < hi; a = b) {
            b = run_end(a, hi);
            if (b - a > keep_hi - keep_lo) {
              keep_lo = a;
              keep_hi = b;
            }
          }
          if (levels_.size() == depth + 1) levels_.emplace_back(compiled_.num_qubits);
          for (std::size_t a = lo, b; a < hi; a = b) {
            b = run_end(a, hi);
            if (a == keep_lo) continue;
            StateVector& child = levels_[depth + 1].state;
            child = state;
            apply_branch(child, nop, bop, weights, picks_[ids_[a]]);
            evolve(a, b, depth + 1, step, op + 1);
            if (stopped_) return;
          }
          lo = keep_lo;
          hi = keep_hi;
        }
        apply_branch(state, nop, bop, weights, picks_[ids_[lo]]);
      }
    }
    sample_leaf(state, lo, hi);
  }

  /// Reorders ids_[lo, hi) into runs of equal picks, in ascending pick order,
  /// by a stable counting pass over the `branches` possible picks.
  void group_by_pick(std::size_t lo, std::size_t hi, std::size_t branches) {
    run_starts_.assign(branches + 1, 0);
    for (std::size_t i = lo; i < hi; ++i) ++run_starts_[picks_[ids_[i]] + 1];
    for (std::size_t p = 0; p < branches; ++p) run_starts_[p + 1] += run_starts_[p];
    grouped_.resize(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) grouped_[run_starts_[picks_[ids_[i]]]++] = ids_[i];
    std::copy(grouped_.begin(), grouped_.end(), ids_.begin() + static_cast<std::ptrdiff_t>(lo));
  }

  /// End of the run of equal picks starting at ids_[a].
  std::size_t run_end(std::size_t a, std::size_t hi) const {
    std::size_t b = a + 1;
    while (b < hi && picks_[ids_[b]] == picks_[ids_[a]]) ++b;
    return b;
  }

  /// Born weights p_i = ||K_i psi||^2 of the level's state, evaluated on the
  /// single branch scratch instead of materializing every branch, into the
  /// level's weights, and their checked sum (once for the whole group) in
  /// `total`.
  const std::vector<double>& born_weights(Level& level, const CompiledNoiseOp& op,
                                          const BoundOp& bop, double& total) {
    level.weights.resize(op.operators.size());
    for (std::size_t i = 0; i < op.operators.size(); ++i)
      level.weights[i] = linalg::applied_norm_squared(
          level.state.amplitudes(), bound_[bop.first + i], branch_);
    total = common::Rng::discrete_total(level.weights);
    return level.weights;
  }

  /// Applies branch `pick` of `op` to `state`. A Kraus branch is renormalized
  /// by its Born weight, which is the applied state's norm_squared() bit for
  /// bit: the same kernel on the same amplitudes, summed the same way.
  void apply_branch(StateVector& state, const CompiledNoiseOp& op, const BoundOp& bop,
                    const std::vector<double>& weights, std::size_t pick) const {
    state.apply_bound(bound_[bop.first + pick]);
    if (!op.mixed_unitary) state.normalize(weights[pick]);
  }

  void sample_leaf(StateVector& state, std::size_t lo, std::size_t hi) {
    if (poller_.should_stop()) {
      stopped_ = true;
      return;
    }
    check_state_norm(state.norm_squared());
    // The per-shot stream seed doubles as the NaN-fault stream id: stable
    // across thread counts and shot-range partitions. Fault firing never touches
    // an RNG, so non-faulted shots draw the same stream with or without
    // injection armed.
    if (common::faults::enabled()) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint64_t stream = common::derive_stream_seed(seed_, shot_begin_ + ids_[i]);
        if (common::faults::fires(common::faults::Site::StateNan, stream)) {
          static const std::vector<int> qubit0{0};
          state.apply_bound(linalg::bind_kernel(
              linalg::plan_kernel(nan_matrix(), qubit0, state.amplitudes().size()),
              nan_matrix(), qubit0));
          check_state_norm(state.norm_squared());
        }
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      common::Rng& rng = rngs_[ids_[i]];
      ++counts_[noise::sample_readout_flip(state.sample(rng), compiled_.readout, rng)];
    }
    completed_ += hi - lo;
    ++leaves_;
  }

  const CompiledCircuit& compiled_;
  std::vector<linalg::BoundKernel> steps_bound_;   // every step unitary, bound once
  std::vector<linalg::BoundKernel> bound_;         // every noise operator, bound once
  std::vector<std::vector<BoundOp>> bound_ops_;    // per noise list, per op
  std::size_t shot_begin_;
  std::uint64_t seed_;
  std::vector<common::Rng> rngs_;    // per shot, indexed by shot - shot_begin
  std::vector<std::size_t> ids_;     // shot indices, grouped by branch history
  std::vector<std::size_t> picks_;   // per shot: branch drawn at the current op
  std::vector<std::size_t> grouped_;  // group_by_pick scratch: one group's ids
  std::vector<std::size_t> run_starts_;  // group_by_pick scratch: per pick
  std::deque<Level> levels_;         // levels_[d]: the group at split depth d
  std::vector<linalg::cplx> branch_;  // Born-weight scratch
  common::StopPoller poller_;
  std::vector<std::uint64_t> counts_;
  std::size_t completed_ = 0;
  std::size_t leaves_ = 0;
  bool stopped_ = false;
};

}  // namespace

std::vector<std::uint64_t> trajectory_counts_streamed(const CompiledCircuit& compiled,
                                                      std::size_t shot_begin,
                                                      std::size_t shot_end,
                                                      std::uint64_t seed,
                                                      const common::Deadline& deadline,
                                                      std::size_t* completed,
                                                      std::size_t* leaves) {
  ShotTree tree(compiled, shot_begin, shot_end, seed, deadline);
  tree.run();
  if (completed != nullptr) *completed = tree.completed();
  if (leaves != nullptr) *leaves = tree.leaves();
  return std::move(tree.counts());
}

namespace {

/// Trace-drift guard for the exact engines: the raw outcome mass must be
/// finite and near 1 before normalization smooths corruption away.
void check_outcome_mass(const std::vector<double>& probs, const char* engine) {
  double mass = 0.0;
  for (double p : probs) mass += p;
  if (std::fabs(mass - 1.0) <= kNormDriftTolerance) return;
  std::ostringstream os;
  os << engine << " state corrupt: outcome mass = " << mass
     << " (norm-drift guard, tolerance " << kNormDriftTolerance << ")";
  throw common::SimulationError(os.str());
}

}  // namespace

std::vector<double> density_matrix_probabilities(const CompiledCircuit& compiled,
                                                 const common::Deadline& deadline,
                                                 bool* timed_out) {
  DensityMatrix rho(compiled.num_qubits);
  common::StopPoller poller(deadline, /*stride=*/1);
  for (const CompiledStep& step : compiled.steps) {
    if (poller.should_stop()) break;
    rho.apply_unitary(step.unitary, step.plan, step.qubits);
    for (const CompiledNoiseOp& op : compiled.noise(step))
      rho.apply_kraus(op.operators, op.plans,
                      op.mixed_unitary ? &op.probs : nullptr, op.qubits);
  }
  if (timed_out != nullptr) *timed_out = poller.triggered();
  auto probs = rho.probabilities();
  check_outcome_mass(probs, "density-matrix");
  probs = noise::apply_readout_error(probs, compiled.readout);
  return metrics::normalized(std::move(probs));
}

std::vector<double> statevector_probabilities(const CompiledCircuit& compiled,
                                              const common::Deadline& deadline,
                                              bool* timed_out) {
  StateVector state(compiled.num_qubits);
  common::StopPoller poller(deadline, /*stride=*/1);
  for (const CompiledStep& step : compiled.steps) {
    QC_CHECK_MSG(step.noise == kNoNoise,
                 "statevector_probabilities requires a noise-free program");
    if (poller.should_stop()) break;
    state.apply_bound(linalg::bind_kernel(step.plan, step.unitary, step.qubits));
  }
  if (timed_out != nullptr) *timed_out = poller.triggered();
  auto probs = state.probabilities();
  check_outcome_mass(probs, "statevector");
  return probs;
}

std::vector<double> ideal_probabilities(const ir::QuantumCircuit& circuit) {
  return statevector_probabilities(compile_noisy_circuit(
      circuit, noise::NoiseModel::ideal(circuit.num_qubits())));
}

}  // namespace qc::sim
