#include "linalg/matrix.hpp"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qc::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::initializer_list<cplx> values)
    : Matrix(rows, cols) {
  QC_CHECK_MSG(values.size() == rows * cols, "initializer size must equal rows*cols");
  std::size_t i = 0;
  for (const cplx& v : values) data_[i++] = v;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
  return m;
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  QC_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  QC_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix Matrix::operator*(cplx scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix& Matrix::operator*=(cplx scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix operator*(cplx scalar, const Matrix& m) { return m * scalar; }

Matrix Matrix::operator*(const Matrix& rhs) const {
  QC_CHECK_MSG(cols_ == rhs.rows_, "GEMM dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  // ikj loop order: streams rhs rows, accumulates into out rows (cache friendly).
  for (std::size_t i = 0; i < rows_; ++i) {
    cplx* out_row = out.data_.data() + i * out.cols_;
    for (std::size_t k = 0; k < cols_; ++k) {
      const cplx a = data_[i * cols_ + k];
      if (a == cplx{0.0, 0.0}) continue;
      const cplx* rhs_row = rhs.data_.data() + k * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out_row[j] += a * rhs_row[j];
    }
  }
  return out;
}

Matrix Matrix::adjoint() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = std::conj((*this)(r, c));
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

cplx Matrix::trace() const {
  QC_CHECK(rows_ == cols_);
  cplx t{0.0, 0.0};
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  QC_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - rhs.data_[i]));
  return m;
}

bool Matrix::is_unitary(double tol) const {
  if (rows_ != cols_) return false;
  const Matrix probe = adjoint() * (*this);
  return probe.max_abs_diff(identity(rows_)) <= tol;
}

bool Matrix::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r; c < cols_; ++c)
      if (std::abs((*this)(r, c) - std::conj((*this)(c, r))) > tol) return false;
  return true;
}

std::vector<cplx> Matrix::apply(const std::vector<cplx>& x) const {
  QC_CHECK(x.size() == cols_);
  std::vector<cplx> y(rows_, cplx{0.0, 0.0});
  for (std::size_t r = 0; r < rows_; ++r) {
    const cplx* row = data_.data() + r * cols_;
    cplx acc{0.0, 0.0};
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::uint64_t Matrix::fingerprint() const {
  using common::hash_combine;
  std::uint64_t h = hash_combine(0xa17c9d3e5b82f641ULL, rows_);
  h = hash_combine(h, cols_);
  for (const cplx& v : data_) {
    h = hash_combine(h, std::bit_cast<std::uint64_t>(v.real()));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(v.imag()));
  }
  return h;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << "[ ";
    for (std::size_t c = 0; c < cols_; ++c) {
      const cplx v = (*this)(r, c);
      os << v.real() << (v.imag() < 0 ? "-" : "+") << std::abs(v.imag()) << "i ";
    }
    os << "]\n";
  }
  return os.str();
}

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t ar = 0; ar < a.rows(); ++ar)
    for (std::size_t ac = 0; ac < a.cols(); ++ac) {
      const cplx av = a(ar, ac);
      if (av == cplx{0.0, 0.0}) continue;
      for (std::size_t br = 0; br < b.rows(); ++br)
        for (std::size_t bc = 0; bc < b.cols(); ++bc)
          out(ar * b.rows() + br, ac * b.cols() + bc) = av * b(br, bc);
    }
  return out;
}

cplx inner(const std::vector<cplx>& x, const std::vector<cplx>& y) {
  QC_CHECK(x.size() == y.size());
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < x.size(); ++i) s += std::conj(x[i]) * y[i];
  return s;
}

double norm(const std::vector<cplx>& x) {
  double s = 0.0;
  for (const auto& v : x) s += std::norm(v);
  return std::sqrt(s);
}

}  // namespace qc::linalg
