#include "synth/template.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "synth/kernels.hpp"

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
  detail::dispatch<detail::left_u3>(m, q, g);
}

void left_cx(Matrix& m, int control, int target) {
  detail::dispatch<detail::left_cx>(m, control, target);
}

void right_u3(Matrix& m, int q, const U3Entries& g) {
  detail::dispatch<detail::right_u3>(m, q, g);
}

void right_cx(Matrix& m, int control, int target) {
  detail::dispatch<detail::right_cx>(m, control, target);
}

}  // namespace rowops

void TemplateCircuit::unitary(const std::vector<double>& params, Matrix& out) const {
  detail::dispatch<detail::unitary>(*this, params, out);
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
