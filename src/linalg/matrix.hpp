// Dense complex linear algebra sized for circuit work.
//
// Dimensions here are 2^n for n up to ~12 qubits (unitaries for synthesis are
// at most 32x32; density matrices at most 2^5 x 2^5 in the experiments), so a
// straightforward cache-friendly row-major dense representation is the right
// tool; no sparse machinery is needed.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qc::linalg {

using cplx = std::complex<double>;

/// Dense row-major complex matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);
  Matrix(std::size_t rows, std::size_t cols, std::initializer_list<cplx> values);

  static Matrix identity(std::size_t n);
  static Matrix zeros(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  cplx& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const cplx& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  cplx* data() { return data_.data(); }
  const cplx* data() const { return data_.data(); }

  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix operator*(const Matrix& rhs) const;  // GEMM
  Matrix operator*(cplx scalar) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(cplx scalar);

  /// Conjugate transpose.
  Matrix adjoint() const;
  /// Plain transpose.
  Matrix transpose() const;

  cplx trace() const;
  /// max_ij |a_ij - b_ij|
  double max_abs_diff(const Matrix& rhs) const;

  /// ||U†U - I||_max <= tol
  bool is_unitary(double tol = 1e-9) const;
  /// Hermitian within tolerance.
  bool is_hermitian(double tol = 1e-9) const;

  /// Matrix-vector product y = A x.
  std::vector<cplx> apply(const std::vector<cplx>& x) const;

  /// Order-dependent content hash over dimensions and entry bit patterns
  /// (common::hash_combine). Keys the synthesis result cache alongside exact
  /// structural discriminators, mirroring the execution-engine caches.
  std::uint64_t fingerprint() const;

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

Matrix operator*(cplx scalar, const Matrix& m);

/// Kronecker product a ⊗ b.
Matrix kron(const Matrix& a, const Matrix& b);

/// <x|y> with conjugation on x.
cplx inner(const std::vector<cplx>& x, const std::vector<cplx>& y);

/// Euclidean norm of a complex vector.
double norm(const std::vector<cplx>& x);

}  // namespace qc::linalg
