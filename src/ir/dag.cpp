#include "ir/dag.hpp"

#include "common/error.hpp"

namespace qc::ir {

DagView::DagView(const QuantumCircuit& circuit) : circuit_(circuit) {
  const std::size_t n = circuit.size();
  next_.resize(n);

  std::vector<std::size_t> last(static_cast<std::size_t>(circuit.num_qubits()), kNone);
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = circuit.gate(i);
    next_[i].assign(g.qubits.size(), kNone);
    for (std::size_t k = 0; k < g.qubits.size(); ++k) {
      const int q = g.qubits[k];
      const std::size_t p = last[q];
      if (p != kNone) {
        const Gate& pg = circuit.gate(p);
        for (std::size_t pk = 0; pk < pg.qubits.size(); ++pk)
          if (pg.qubits[pk] == q) next_[p][pk] = i;
      }
      last[q] = i;
    }
  }
}

std::size_t DagView::operand_slot(std::size_t i, int qubit) const {
  const Gate& g = circuit_.gate(i);
  for (std::size_t k = 0; k < g.qubits.size(); ++k)
    if (g.qubits[k] == qubit) return k;
  QC_CHECK_MSG(false, "gate does not act on the requested qubit");
  return kNone;
}

std::size_t DagView::next_on_qubit(std::size_t i, int qubit) const {
  QC_CHECK(i < next_.size());
  return next_[i][operand_slot(i, qubit)];
}

}  // namespace qc::ir
