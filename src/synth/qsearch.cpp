#include "synth/qsearch.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"
#include "synth/cost.hpp"

namespace qc::synth {

namespace {

struct Node {
  std::vector<std::pair<int, int>> blocks;  // CX edges, in order
  std::vector<double> params;               // optimized parameters
  double hs = 1.0;
  double priority = 0.0;
  std::uint64_t order = 0;  // insertion index: deterministic tie-break

  bool operator<(const Node& rhs) const {
    // std::priority_queue is a max-heap; invert for min-priority.
    if (priority != rhs.priority) return priority > rhs.priority;
    return order > rhs.order;
  }
};

TemplateCircuit build_template(int num_qubits,
                               const std::vector<std::pair<int, int>>& blocks) {
  TemplateCircuit tpl = TemplateCircuit::u3_layer(num_qubits);
  for (const auto& [a, b] : blocks) tpl.add_qsearch_block(a, b);
  return tpl;
}

// Everything a search's result depends on besides the target, the edges and
// the seed, in a fixed order. The deadline, the callback, parallel_children
// and the pool are not keyed (synth/cache.hpp).
std::vector<std::uint64_t> keyed_options(const QSearchOptions& o) {
  return key_options(o.success_threshold, o.depth_weight, o.optimizer.tolerance, o.max_cnots,
                     o.max_nodes, o.optimizer.max_iterations, o.optimizer.lbfgs_memory,
                     o.restarts_per_node);
}

/// The search proper; `stream` records every intermediate the callback saw
/// (also recorded when there is no callback, so the run can be cached).
QSearchResult run_qsearch(const linalg::Matrix& target, int num_qubits,
                          const QSearchOptions& options,
                          const std::vector<std::pair<int, int>>& edges,
                          std::vector<ApproxCircuit>& stream) {
  common::Rng rng(options.seed);
  QSearchResult result;
  std::uint64_t insert_counter = 0;

  static obs::Histogram& search_ns = obs::histogram("synth.qsearch_ns");
  obs::Span span("synth.qsearch", &search_ns);
  // Tally on every exit path (the search returns from inside the expansion
  // loop on convergence). Destroyed before `span`, so the args land on it.
  struct Tally {
    QSearchResult& r;
    obs::Span& s;
    ~Tally() {
      static obs::Counter& expanded = obs::counter("synth.qsearch.nodes_expanded");
      static obs::Counter& optimized = obs::counter("synth.qsearch.nodes_optimized");
      expanded.add(r.nodes_expanded);
      optimized.add(r.nodes_optimized);
      if (s.active()) {
        s.arg("nodes_expanded", r.nodes_expanded);
        s.arg("nodes_optimized", r.nodes_optimized);
        s.arg("best_hs", r.best.hs_distance);
        s.arg("converged", static_cast<int>(r.converged));
      }
    }
  } tally{result, span};

  // Pure per-node optimization: touches only `node` and `record`, so any
  // number of nodes can run concurrently. The RNG stream depends only on
  // (options.seed, node.order), preserving the serial schedule's streams
  // (the serial code split at insert_counter + 1 == order + 2).
  auto optimize_node = [&](Node& node, ApproxCircuit& record) {
    const TemplateCircuit tpl = build_template(num_qubits, node.blocks);
    const HsCost cost(tpl, target);
    const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
    const GradFn g = [&cost](const std::vector<double>& x, std::vector<double>& out) {
      cost.gradient(x, out);
    };

    // Warm start: parent parameters extended with identity angles for the
    // new block (node.params may already hold them).
    std::vector<double> x0 = node.params;
    x0.resize(static_cast<std::size_t>(tpl.num_params()), 0.0);

    MultistartOptions ms;
    ms.inner = options.optimizer;
    ms.inner.deadline = options.deadline;  // per-iteration polling inside
    ms.num_starts = options.restarts_per_node;
    common::Rng node_rng = rng.split(node.order + 2);
    const OptimizeResult opt = multistart_minimize(f, g, x0, node_rng, ms);

    node.params = opt.params;
    node.hs = cost_to_hs_distance(opt.value);
    node.priority = node.hs + options.depth_weight * static_cast<double>(node.blocks.size());
    record = ApproxCircuit{tpl.instantiate(node.params), node.hs, tpl.cx_count(),
                           "qsearch"};
  };

  // Sequential bookkeeping for one optimized node: counters, the
  // intermediate stream, and the best-so-far update, in the exact order the
  // serial schedule performs them.
  auto merge_node = [&](const Node& node, ApproxCircuit& record) {
    ++result.nodes_optimized;
    stream.push_back(record);
    if (options.intermediate_callback) options.intermediate_callback(record);
    const bool better =
        result.best.circuit.is_null() || node.hs < result.best.hs_distance ||
        (node.hs == result.best.hs_distance && record.cnot_count < result.best.cnot_count);
    if (better) result.best = std::move(record);
  };

  std::priority_queue<Node> open;
  Node root;
  root.order = insert_counter++;
  ApproxCircuit root_record;
  optimize_node(root, root_record);
  merge_node(root, root_record);
  open.push(std::move(root));

  struct PendingChild {
    Node node;
    ApproxCircuit record;
  };
  std::vector<PendingChild> children;

  common::ThreadPool* pool = options.pool;
  static obs::Counter& parallel_children_counter =
      obs::counter("synth.qsearch.children_parallel");

  while (!open.empty()) {
    if (result.best.hs_distance < options.success_threshold) break;
    if (result.nodes_expanded >= options.max_nodes) break;
    if (options.deadline.expired()) {
      result.timed_out = true;
      break;
    }

    Node current = open.top();
    open.pop();
    ++result.nodes_expanded;
    if (static_cast<int>(current.blocks.size()) >= options.max_cnots) continue;

    // Frontier expansion in two phases. Phase 1 optimizes every child —
    // concurrently when enabled; each child is a pure function of
    // (parent, edge, order). Phase 2 merges sequentially in edge order,
    // reproducing the serial schedule bit for bit: deadline expiry and
    // convergence cut the merge at the same position the serial loop would
    // have stopped at, and later children are simply discarded.
    children.clear();
    children.resize(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      Node& child = children[i].node;
      child.blocks = current.blocks;
      child.blocks.push_back(edges[i]);
      child.params = current.params;  // warm start; extended in optimize_node
      child.order = insert_counter++;
    }
    const bool parallel = options.parallel_children && children.size() > 1;
    if (parallel) {
      if (pool == nullptr) pool = &common::ThreadPool::global();
      pool->parallel_for(0, children.size(), [&](std::size_t i) {
        optimize_node(children[i].node, children[i].record);
      });
      parallel_children_counter.add(children.size());
    } else {
      for (auto& child : children) optimize_node(child.node, child.record);
    }

    for (auto& child : children) {
      // The serial schedule polls before each child's optimization; merging
      // at the same granularity keeps the response within one node's budget.
      if (options.deadline.expired()) {
        result.timed_out = true;
        break;
      }
      merge_node(child.node, child.record);
      if (child.node.hs < options.success_threshold) {
        result.converged = true;
        return result;
      }
      open.push(std::move(child.node));
    }
    if (result.timed_out) break;
  }

  result.converged = result.best.hs_distance < options.success_threshold;
  return result;
}

}  // namespace

QSearchResult qsearch_synthesize(const linalg::Matrix& target, int num_qubits,
                                 const QSearchOptions& options,
                                 const noise::CouplingMap* coupling) {
  QC_CHECK(num_qubits >= 2 && num_qubits <= 6);
  QC_CHECK(target.rows() == (std::size_t{1} << num_qubits));
  // Fault injection precedes the cache: an armed fault fires whether or not
  // the result is memoized.
  if (common::faults::enabled() &&
      common::faults::fires(common::faults::Site::SynthFail, options.seed)) {
    throw common::SynthesisError("injected synthesis fault (qsearch, seed " +
                                 std::to_string(options.seed) + ")");
  }

  const SynthKey key{SynthTool::QSearch, target.fingerprint(), 0, target.rows(), num_qubits,
                     synthesis_edges(num_qubits, coupling), keyed_options(options),
                     options.seed};
  return cached_synthesis<QSearchResult>(
      key, options.intermediate_callback,
      [&](std::vector<ApproxCircuit>& stream) {
        return run_qsearch(target, num_qubits, options, key.edges, stream);
      });
}

std::vector<std::pair<int, int>> synthesis_edges(int num_qubits,
                                                 const noise::CouplingMap* coupling) {
  std::vector<std::pair<int, int>> edges;
  if (coupling) {
    QC_CHECK(coupling->num_qubits() >= num_qubits);
    for (const auto& e : coupling->edges())
      if (e.first < num_qubits && e.second < num_qubits) edges.push_back(e);
  } else {
    for (int a = 0; a < num_qubits; ++a)
      for (int b = a + 1; b < num_qubits; ++b) edges.emplace_back(a, b);
  }
  QC_CHECK_MSG(!edges.empty(), "no usable edges for synthesis");
  return edges;
}

}  // namespace qc::synth
