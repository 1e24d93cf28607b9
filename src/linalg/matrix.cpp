#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "util/error.hpp"

namespace gs::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    GS_CHECK(row.size() == cols_, "ragged initializer list for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix Matrix::diag(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      if (aij == 0.0) continue;
      for (std::size_t k = 0; k < b.rows(); ++k)
        for (std::size_t l = 0; l < b.cols(); ++l)
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
    }
  return out;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  GS_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  GS_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  GS_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
           "matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  GS_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
           "matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector Matrix::row(std::size_t r) const {
  GS_CHECK(r < rows_, "Matrix::row out of range");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::col(std::size_t c) const {
  GS_CHECK(c < cols_, "Matrix::col out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Vector Matrix::row_sums() const {
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c);
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::norm_inf() const {
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += std::fabs((*this)(r, c));
    m = std::max(m, s);
  }
  return m;
}

void Matrix::assign_zero(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::insert_block(std::size_t r0, std::size_t c0, const Matrix& src) {
  GS_CHECK(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_,
           "insert_block does not fit");
  for (std::size_t r = 0; r < src.rows(); ++r)
    for (std::size_t c = 0; c < src.cols(); ++c)
      (*this)(r0 + r, c0 + c) = src(r, c);
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  GS_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_, "block out of range");
  Matrix out(nr, nc);
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t c = 0; c < nc; ++c) out(r, c) = (*this)(r0 + r, c0 + c);
  return out;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  Matrix out;
  multiply_into(out, a, b);
  return out;
}

namespace {
// Tile edge for the blocked kernel: 64x64 doubles = 32 KiB per operand
// tile, comfortably inside L1+L2 on anything this runs on.
constexpr std::size_t kMatmulBlock = 64;
}  // namespace

void multiply_into(Matrix& out, const Matrix& a, const Matrix& b) {
  GS_CHECK(a.cols() == b.rows(), "matrix shape mismatch in *");
  GS_CHECK(&out != &a && &out != &b, "multiply_into: out aliases an input");
  const std::size_t n = a.rows();
  const std::size_t kk_dim = a.cols();
  const std::size_t m = b.cols();
  out.assign_zero(n, m);
  // Blocked over (i, k) so a tile of `a` and the matching rows of `b`
  // stay hot; within each (i, j) the k-blocks are visited in ascending
  // order, keeping the accumulation order identical to the naive kernel.
  for (std::size_t i0 = 0; i0 < n; i0 += kMatmulBlock) {
    const std::size_t i1 = std::min(i0 + kMatmulBlock, n);
    for (std::size_t k0 = 0; k0 < kk_dim; k0 += kMatmulBlock) {
      const std::size_t k1 = std::min(k0 + kMatmulBlock, kk_dim);
      for (std::size_t i = i0; i < i1; ++i) {
        const double* arow = a.data() + i * kk_dim;
        double* orow = out.data() + i * m;
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = arow[k];
          if (aik == 0.0) continue;
          const double* brow = b.data() + k * m;
          for (std::size_t j = 0; j < m; ++j) orow[j] += aik * brow[j];
        }
      }
    }
  }
}

Matrix multiply_naive(const Matrix& a, const Matrix& b) {
  GS_CHECK(a.cols() == b.rows(), "matrix shape mismatch in *");
  Matrix out(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both b and out.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Matrix operator*(double s, Matrix a) { return a *= s; }
Matrix operator*(Matrix a, double s) { return a *= s; }

Vector operator*(const Vector& x, const Matrix& a) {
  Vector y;
  multiply_left_into(y, x, a);
  return y;
}

void multiply_left_into(Vector& out, const Vector& x, const Matrix& a) {
  GS_CHECK(x.size() == a.rows(), "vector/matrix shape mismatch in x*A");
  GS_CHECK(&out != &x, "multiply_left_into: out aliases x");
  out.assign(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += xi * a(i, j);
  }
}

Vector operator*(const Matrix& a, const Vector& x) {
  Vector y;
  multiply_into(y, a, x);
  return y;
}

void multiply_into(Vector& out, const Matrix& a, const Vector& x) {
  GS_CHECK(x.size() == a.cols(), "vector/matrix shape mismatch in A*x");
  GS_CHECK(&out != &x, "multiply_into: out aliases x");
  out.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    out[i] = s;
  }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << std::setprecision(6);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << std::setw(12) << m(r, c);
      if (c + 1 < m.cols()) os << ' ';
    }
    os << (r + 1 == m.rows() ? "]]" : "]") << '\n';
  }
  return os;
}

Vector ones(std::size_t n) { return Vector(n, 1.0); }

double dot(const Vector& a, const Vector& b) {
  GS_CHECK(a.size() == b.size(), "dot length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double sum(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

void axpy(double s, const Vector& x, Vector& y) {
  GS_CHECK(x.size() == y.size(), "axpy length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += s * x[i];
}

Vector scaled(const Vector& v, double s) {
  Vector out(v);
  for (double& x : out) x *= s;
  return out;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  GS_CHECK(a.size() == b.size(), "max_abs_diff length mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  GS_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
           "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::fabs(a(r, c) - b(r, c)));
  return m;
}

}  // namespace gs::linalg
