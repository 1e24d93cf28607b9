// Dense row-major matrix of doubles.
//
// This is the workhorse of the matrix-geometric machinery. The chains the
// gang model produces have O(10..1000) states per level, so a simple dense
// representation beats any sparse format in both clarity and speed at this
// scale. Value semantics throughout (CppCoreGuidelines C.20/F.15): matrices
// are copied and moved like ints.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace gs::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);
  static Matrix zeros(std::size_t rows, std::size_t cols);
  /// Diagonal matrix from a vector.
  static Matrix diag(const Vector& d);
  /// Kronecker product A (x) B.
  static Matrix kron(const Matrix& a, const Matrix& b);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool is_square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws gs::InvalidArgument).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  Matrix transpose() const;

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  /// Sum of each row, i.e. A e.
  Vector row_sums() const;

  /// max_{i,j} |a_ij|
  double max_abs() const;
  /// Infinity norm: max row sum of absolute values.
  double norm_inf() const;

  /// Reshape to rows x cols and zero-fill, reusing the existing
  /// allocation when it is large enough — the workhorse of the solver
  /// workspaces, which call the same shapes over and over.
  void assign_zero(std::size_t rows, std::size_t cols);

  /// Copy `src` into this matrix with its (0,0) at (r0, c0); must fit.
  void insert_block(std::size_t r0, std::size_t c0, const Matrix& src);
  /// Extract the block of shape (nr, nc) whose top-left corner is (r0, c0).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(const Matrix& a, const Matrix& b);
Matrix operator*(double s, Matrix a);
Matrix operator*(Matrix a, double s);

/// out = a b, reusing out's storage (no allocation when the shape was
/// already right). `out` must not alias `a` or `b`. The kernel is
/// cache-blocked over (i, k) but accumulates each out(i, j) strictly in
/// ascending-k order, so the result is bitwise identical to
/// multiply_naive — blocking changes the traversal, never the arithmetic.
void multiply_into(Matrix& out, const Matrix& a, const Matrix& b);

/// Reference triple-loop product (i-k-j order). Kept as the ground truth
/// the blocked kernel is diffed against in tests and benchmarked against
/// in bench/micro_kernels.
Matrix multiply_naive(const Matrix& a, const Matrix& b);

/// Row vector times matrix: y = x A (x has a.rows() entries).
Vector operator*(const Vector& x, const Matrix& a);
/// out = x A, reusing out's storage — the allocation-free form the
/// uniformization power series iterates on. Bitwise identical to
/// operator*(Vector, Matrix). `out` must not alias `x`.
void multiply_left_into(Vector& out, const Vector& x, const Matrix& a);
/// Matrix times column vector: y = A x (x has a.cols() entries).
Vector operator*(const Matrix& a, const Vector& x);
/// out = A x, reusing out's storage — the allocation-free form power
/// iteration steps on. Bitwise identical to operator*(Matrix, Vector).
/// `out` must not alias `x`.
void multiply_into(Vector& out, const Matrix& a, const Vector& x);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

// --- small vector helpers shared across the library -------------------

/// Vector of n ones.
Vector ones(std::size_t n);
double dot(const Vector& a, const Vector& b);
double sum(const Vector& v);
/// max_i |v_i|
double norm_inf(const Vector& v);
/// y += s * x
void axpy(double s, const Vector& x, Vector& y);
Vector scaled(const Vector& v, double s);
/// Elementwise |a - b| max — convergence tests.
double max_abs_diff(const Vector& a, const Vector& b);
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace gs::linalg
