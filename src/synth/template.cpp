#include "synth/template.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qc::synth {

using linalg::cplx;
using linalg::Matrix;

TemplateCircuit::TemplateCircuit(int num_qubits) : num_qubits_(num_qubits) {
  QC_CHECK(num_qubits > 0 && num_qubits <= 10);
}

void TemplateCircuit::add_u3(int q) {
  QC_CHECK(q >= 0 && q < num_qubits_);
  ops_.push_back(Op{false, q, -1, 3 * num_u3_});
  ++num_u3_;
}

void TemplateCircuit::add_cx(int control, int target) {
  QC_CHECK(control >= 0 && control < num_qubits_ && target >= 0 &&
           target < num_qubits_ && control != target);
  ops_.push_back(Op{true, control, target, -1});
  ++num_cx_;
}

void TemplateCircuit::add_qsearch_block(int control, int target) {
  add_cx(control, target);
  add_u3(control);
  add_u3(target);
}

void TemplateCircuit::add_generic_block(int a, int b) {
  add_u3(a);
  add_u3(b);
  for (int rep = 0; rep < 3; ++rep) {
    add_cx(a, b);
    add_u3(a);
    add_u3(b);
  }
}

TemplateCircuit TemplateCircuit::u3_layer(int num_qubits) {
  TemplateCircuit t(num_qubits);
  for (int q = 0; q < num_qubits; ++q) t.add_u3(q);
  return t;
}

U3Trig::U3Trig(double theta, double phi, double lambda)
    : cos_half(std::cos(theta / 2.0)),
      sin_half(std::sin(theta / 2.0)),
      cos_phi(std::cos(phi)),
      sin_phi(std::sin(phi)),
      cos_lambda(std::cos(lambda)),
      sin_lambda(std::sin(lambda)),
      cos_sum(std::cos(phi + lambda)),
      sin_sum(std::sin(phi + lambda)) {}

// sin/cos(theta/2) may be negative, so the polar entries are built as
// {r cos a, r sin a} rather than through std::polar (which requires r >= 0).
U3Entries u3_entries(const U3Trig& t) {
  const double c = t.cos_half;
  const double s = t.sin_half;
  return U3Entries{cplx{c, 0.0}, -cplx{s * t.cos_lambda, s * t.sin_lambda},
                   cplx{s * t.cos_phi, s * t.sin_phi},
                   cplx{c * t.cos_sum, c * t.sin_sum}};
}

U3Entries u3_entries(double theta, double phi, double lambda) {
  return u3_entries(U3Trig(theta, phi, lambda));
}

namespace rowops {

void left_u3(Matrix& m, int q, const U3Entries& g) {
  const std::size_t dim = m.rows();
  const std::size_t stride = 2 * m.cols();
  double* data = reinterpret_cast<double*>(m.data());
  const double g00r = g.g00.real(), g00i = g.g00.imag();
  const double g01r = g.g01.real(), g01i = g.g01.imag();
  const double g10r = g.g10.real(), g10i = g.g10.imag();
  const double g11r = g.g11.real(), g11i = g.g11.imag();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim; ++r) {
    if (r & bit) continue;
    double* row0 = data + r * stride;
    double* row1 = data + (r | bit) * stride;
    for (std::size_t k = 0; k < stride; k += 2) {
      const double v0r = row0[k], v0i = row0[k + 1];
      const double v1r = row1[k], v1i = row1[k + 1];
      // g00 * v0 + g01 * v1 and g10 * v0 + g11 * v1.
      row0[k] = (g00r * v0r - g00i * v0i) + (g01r * v1r - g01i * v1i);
      row0[k + 1] = (g00r * v0i + g00i * v0r) + (g01r * v1i + g01i * v1r);
      row1[k] = (g10r * v0r - g10i * v0i) + (g11r * v1r - g11i * v1i);
      row1[k + 1] = (g10r * v0i + g10i * v0r) + (g11r * v1i + g11i * v1r);
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
  double* data = reinterpret_cast<double*>(m.data());
  const double g00r = g.g00.real(), g00i = g.g00.imag();
  const double g01r = g.g01.real(), g01i = g.g01.imag();
  const double g10r = g.g10.real(), g10i = g.g10.imag();
  const double g11r = g.g11.real(), g11i = g.g11.imag();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = data + 2 * r * cols;
    // Column pairs (c, c | bit) in runs of `bit` consecutive columns.
    for (std::size_t base = 0; base < cols; base += 2 * bit) {
      double* col0 = row + 2 * base;
      double* col1 = col0 + 2 * bit;
      for (std::size_t k = 0; k < 2 * bit; k += 2) {
        const double v0r = col0[k], v0i = col0[k + 1];
        const double v1r = col1[k], v1i = col1[k + 1];
        // (M G)(r, c0) = M(r, c0) g00 + M(r, c1) g10; columns mix through G's rows.
        col0[k] = (v0r * g00r - v0i * g00i) + (v1r * g10r - v1i * g10i);
        col0[k + 1] = (v0r * g00i + v0i * g00r) + (v1r * g10i + v1i * g10r);
        col1[k] = (v0r * g01r - v0i * g01i) + (v1r * g11r - v1i * g11i);
        col1[k + 1] = (v0r * g01i + v0i * g01r) + (v1r * g11i + v1i * g11r);
      }
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

}  // namespace rowops

void TemplateCircuit::unitary(const std::vector<double>& params, Matrix& out) const {
  QC_CHECK(params.size() == static_cast<std::size_t>(num_params()));
  const std::size_t dim = std::size_t{1} << num_qubits_;
  if (out.rows() != dim || out.cols() != dim) out = Matrix(dim, dim);
  cplx* m = out.data();
  for (std::size_t i = 0; i < dim * dim; ++i) m[i] = cplx{0.0, 0.0};
  for (std::size_t i = 0; i < dim; ++i) m[i * dim + i] = cplx{1.0, 0.0};

  for (const Op& op : ops_) {
    if (op.is_cx) {
      rowops::left_cx(out, op.a, op.b);
    } else {
      rowops::left_u3(out, op.a,
                      u3_entries(params[op.param_offset], params[op.param_offset + 1],
                                 params[op.param_offset + 2]));
    }
  }
}

ir::QuantumCircuit TemplateCircuit::instantiate(const std::vector<double>& params) const {
  QC_CHECK(params.size() == static_cast<std::size_t>(num_params()));
  ir::QuantumCircuit circuit(num_qubits_);
  for (const Op& op : ops_) {
    if (op.is_cx) {
      circuit.cx(op.a, op.b);
    } else {
      circuit.u3(params[op.param_offset], params[op.param_offset + 1],
                 params[op.param_offset + 2], op.a);
    }
  }
  return circuit;
}

std::vector<double> TemplateCircuit::identity_params() const {
  return std::vector<double>(static_cast<std::size_t>(num_params()), 0.0);
}

std::uint64_t TemplateCircuit::fingerprint() const {
  using common::hash_combine;
  std::uint64_t h = hash_combine(0x7e3f1a95c2d480b7ULL,
                                 static_cast<std::uint64_t>(num_qubits_));
  for (const Op& op : ops_) {
    h = hash_combine(h, op.is_cx ? 0x2ULL : 0x1ULL);
    h = hash_combine(h, static_cast<std::uint64_t>(op.a));
    h = hash_combine(h, static_cast<std::uint64_t>(op.b + 1));
  }
  return h;
}

}  // namespace qc::synth
