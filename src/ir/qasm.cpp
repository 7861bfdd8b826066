#include "ir/qasm.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qc::ir {

namespace {

/// QASM text comes from outside the program: a malformed line is the
/// caller's input, reported as the message alone (no expression or source
/// location).
void require(bool ok, const std::string& what, int line_no) {
  if (!ok) throw common::ContractError("qasm line " + std::to_string(line_no) + ": " + what);
}

std::string format_param(double v) {
  // High precision so round-trips preserve synthesized angles exactly enough.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Evaluates the arithmetic subset QASM params use: numbers, pi, unary minus,
/// products/quotients like "pi/2", "-3*pi/4", and sums/differences.
double eval_expr(const std::string& raw, int line_no) {
  const std::string s = common::trim(raw);
  require(!s.empty(), "empty parameter", line_no);

  // Split on top-level + / - (respecting a leading sign).
  int depth = 0;
  for (std::size_t i = s.size(); i-- > 1;) {
    const char c = s[i];
    if (c == ')') ++depth;
    if (c == '(') --depth;
    if (depth == 0 && (c == '+' || c == '-')) {
      const char prev = s[i - 1];
      if (prev == 'e' || prev == 'E' || prev == '*' || prev == '/' || prev == '+' ||
          prev == '-')
        continue;  // exponent or operator context, not a binary op
      const double lhs = eval_expr(s.substr(0, i), line_no);
      const double rhs = eval_expr(s.substr(i + 1), line_no);
      return c == '+' ? lhs + rhs : lhs - rhs;
    }
  }
  // Split on top-level * and /.
  depth = 0;
  for (std::size_t i = s.size(); i-- > 1;) {
    const char c = s[i];
    if (c == ')') ++depth;
    if (c == '(') --depth;
    if (depth == 0 && (c == '*' || c == '/')) {
      const double lhs = eval_expr(s.substr(0, i), line_no);
      const double rhs = eval_expr(s.substr(i + 1), line_no);
      if (c == '*') return lhs * rhs;
      require(rhs != 0.0, "division by zero", line_no);
      return lhs / rhs;
    }
  }
  if (s.front() == '(' && s.back() == ')') return eval_expr(s.substr(1, s.size() - 2), line_no);
  if (s.front() == '-') return -eval_expr(s.substr(1), line_no);
  if (s.front() == '+') return eval_expr(s.substr(1), line_no);
  if (s == "pi") return 3.14159265358979323846;
  const std::optional<double> v = common::parse_decimal(
      s, std::numeric_limits<double>::lowest(), std::numeric_limits<double>::max());
  require(v.has_value(),
          "bad numeric parameter '" + s + "' (expected pi or a finite decimal number)", line_no);
  return *v;
}

/// Reads a q[i] operand of a register of `num_qubits` (declared before use).
int parse_qubit_ref(const std::string& tok, int num_qubits, int line_no) {
  const std::string t = common::trim(tok);
  require(common::starts_with(t, "q[") && t.back() == ']', "expected q[i] operand", line_no);
  require(num_qubits > 0, "operand before the qreg declaration", line_no);
  const std::string index = t.substr(2, t.size() - 3);
  const std::optional<int> q = common::parse_decimal(index, 0, num_qubits - 1);
  require(q.has_value(), "qubit index '" + index + "' is not " +
                             common::decimal_rule(0, num_qubits - 1), line_no);
  return *q;
}

}  // namespace

std::string to_qasm(const QuantumCircuit& circuit) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  os << "qreg q[" << circuit.num_qubits() << "];\n";
  if (circuit.has_measurements()) os << "creg c[" << circuit.num_qubits() << "];\n";

  for (const Gate& g : circuit.gates()) {
    switch (g.kind) {
      case GateKind::Barrier: {
        os << "barrier";
        for (std::size_t i = 0; i < g.qubits.size(); ++i)
          os << (i ? "," : " ") << "q[" << g.qubits[i] << "]";
        os << ";\n";
        break;
      }
      case GateKind::Measure: {
        for (int q : g.qubits) os << "measure q[" << q << "] -> c[" << q << "];\n";
        break;
      }
      case GateKind::MCX: {
        // qelib has no generic mcx; emit the Qiskit names for small arities
        // and a comment-tagged custom op otherwise.
        const std::size_t nc = g.qubits.size() - 1;
        const char* name = nc == 1 ? "cx" : nc == 2 ? "ccx" : nc == 3 ? "c3x" : "mcx";
        os << name;
        for (std::size_t i = 0; i < g.qubits.size(); ++i)
          os << (i ? "," : " ") << "q[" << g.qubits[i] << "]";
        os << ";\n";
        break;
      }
      default: {
        os << gate_name(g.kind);
        if (!g.params.empty()) {
          os << '(';
          for (std::size_t i = 0; i < g.params.size(); ++i) {
            if (i) os << ',';
            os << format_param(g.params[i]);
          }
          os << ')';
        }
        for (std::size_t i = 0; i < g.qubits.size(); ++i)
          os << (i ? "," : " ") << "q[" << g.qubits[i] << "]";
        os << ";\n";
      }
    }
  }
  return os.str();
}

QuantumCircuit from_qasm(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  int num_qubits = -1;
  std::vector<Gate> pending;

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    const std::size_t comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = common::trim(line);
    if (line.empty()) continue;
    require(line.back() == ';', "missing ';'", line_no);
    line.pop_back();
    line = common::trim(line);

    if (common::starts_with(line, "OPENQASM") || common::starts_with(line, "include") ||
        common::starts_with(line, "creg"))
      continue;
    if (common::starts_with(line, "qreg")) {
      const std::size_t lb = line.find('[');
      const std::size_t rb = line.find(']');
      require(lb != std::string::npos && rb != std::string::npos && rb > lb, "bad qreg",
              line_no);
      const std::string size = line.substr(lb + 1, rb - lb - 1);
      const std::optional<int> n = common::parse_decimal(size, 1, kMaxCircuitQubits);
      require(n.has_value(), "qreg size '" + size + "' is not " +
                                 common::decimal_rule(1, kMaxCircuitQubits), line_no);
      num_qubits = *n;
      continue;
    }
    if (common::starts_with(line, "measure")) {
      const std::size_t arrow = line.find("->");
      require(arrow != std::string::npos, "bad measure", line_no);
      const int q = parse_qubit_ref(line.substr(7, arrow - 7), num_qubits, line_no);
      pending.emplace_back(GateKind::Measure, std::vector<int>{q});
      continue;
    }

    // Generic: name[(params)] q[a],q[b],...
    std::string head = line;
    std::vector<double> params;
    const std::size_t paren = line.find('(');
    std::size_t operands_at;
    if (paren != std::string::npos && paren < line.find(' ')) {
      const std::size_t close = line.find(')', paren);
      require(close != std::string::npos, "unclosed '('", line_no);
      head = line.substr(0, paren);
      for (const std::string& p :
           common::split(line.substr(paren + 1, close - paren - 1), ',')) {
        params.push_back(eval_expr(p, line_no));
        // Finite literals can still overflow in arithmetic (1e300*1e300).
        require(std::isfinite(params.back()), "parameter '" + p + "' is not finite", line_no);
      }
      operands_at = close + 1;
    } else {
      const std::size_t sp = line.find(' ');
      require(sp != std::string::npos, "missing operands", line_no);
      head = line.substr(0, sp);
      operands_at = sp + 1;
    }
    std::vector<int> qubits;
    for (const std::string& tok : common::split(line.substr(operands_at), ','))
      qubits.push_back(parse_qubit_ref(tok, num_qubits, line_no));

    std::string name = common::trim(head);
    GateKind kind;
    if (name == "c3x" || name == "c4x" || name == "mcx") {
      kind = GateKind::MCX;
    } else {
      kind = gate_kind_from_name(name);
    }
    pending.emplace_back(kind, std::move(qubits), std::move(params));
  }

  if (num_qubits <= 0) throw common::ContractError("qasm: the program declares no qreg");
  QuantumCircuit circuit(num_qubits);
  // Coalesce consecutive single-qubit measures into one gate when they cover
  // distinct qubits (mirrors measure_all round-trips); otherwise keep as-is.
  for (auto& g : pending) circuit.append(std::move(g));
  return circuit;
}

}  // namespace qc::ir
