// Compressed sparse row (CSR) matrices and the mixed sparse/dense kernels
// the QBD solvers run on.
//
// The gang model's repeating blocks A0/A2, the block-bidiagonal away-period
// generator of Theorem 4.1, and the off-diagonal blocks of the truncated
// serving-state chain all have O(d) nonzeros in d x d storage. The kernels
// here exploit that WITHOUT changing a single bit of the results: each one
// reproduces the accumulation order of its dense counterpart in matrix.cpp
// exactly, so a solver may switch representations freely and stay bitwise
// identical to the dense path (the same guarantee the blocked multiply
// gives relative to multiply_naive).
//
// Why skipping zeros is bitwise-safe. The dense kernels already skip
// aik == 0.0 terms in A; what the sparse kernels additionally skip are
// terms whose *other* factor is a stored 0.0. For finite operands those
// products are +-0.0, and an IEEE-754 round-to-nearest accumulator that
// starts at +0.0 is never changed by adding +-0.0 (+0.0 + -0.0 = +0.0; a
// nonzero sum is unaffected; exact cancellation of nonzero terms also
// yields +0.0, so the accumulator never holds -0.0). Hence every kernel
// below requires FINITE entries — an Inf or NaN operand would make
// 0 * x != 0 and void the guarantee (generators and probability vectors
// are always finite, so this costs the callers nothing).
//
// Where CSR pays, and where it provably cannot. Sparsity here is a
// property of the *inputs*, not of the algorithm's iterates: the product
// of two structured blocks is generically dense (every row of A0 reaches
// every column of A2 through the shared middle index), so any algorithm
// that iterates on products loses the structure after one step.
//  * Successive substitution (qbd/rmatrix.cpp) keeps re-multiplying the
//    structured A2 and the recompressed R A2 every iteration — CSR gets
//    a shot at the hot loop itself, which is why BENCH_qbd.json shows
//    ~3x there.
//  * Logarithmic reduction squares its H/L/G/T iterates, products of
//    solves that are dense on A2's live columns (the loop drops the
//    others, which are exactly zero, without CSR); CSR can only touch
//    the setup solves and the final R-from-G stage, and the squaring
//    loop dominates the runtime (the obs timers
//    qbd.rsolve.logreduction.{setup,loop,final} carry the measured
//    split). That Amdahl ceiling is why the sparse toggle only bought
//    ~1.06x on log reduction — it is structural, not a missing
//    optimization.
// Consequently the R solvers gate CSR per *input block*: a block denser
// than about half full (qbd/rmatrix.cpp kCsrDensityGate) skips
// compression entirely, because assign_from_dense costs a full O(d^2)
// scan and the sparse product then visits nearly every entry anyway.
// Gating is bitwise-invisible — both paths produce identical bits — so
// it is purely a cost model.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace gs::linalg {

class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  /// Compress a dense matrix; entries equal to 0.0 (either sign) are
  /// dropped, everything else is stored in ascending column order per row
  /// — the order the dense kernels visit them in.
  static SparseMatrix from_dense(const Matrix& a);

  /// Re-compress `a` into this matrix, reusing the index/value storage
  /// (no allocation once capacity has grown to the densest pattern seen).
  /// The workhorse of per-iteration re-compression in the R solvers.
  void assign_from_dense(const Matrix& a);

  /// Expand back to dense. Round-trips bitwise: to_dense() of
  /// from_dense(a) equals `a` wherever `a` is nonzero and +0.0 elsewhere.
  Matrix to_dense() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return vals_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  /// nnz / (rows * cols); 0 for an empty matrix.
  double density() const;

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return vals_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};  // rows_ + 1 offsets into col_idx_
  std::vector<std::size_t> col_idx_;
  std::vector<double> vals_;
};

/// out = a b with sparse A: bitwise identical to the dense
/// multiply_into(out, a.to_dense(), b). `out` must not alias `b`.
void multiply_into(Matrix& out, const SparseMatrix& a, const Matrix& b);

/// out = a b with sparse B: bitwise identical to the dense kernel given
/// finite entries (see the header comment). `out` must not alias `a`.
void multiply_into(Matrix& out, const Matrix& a, const SparseMatrix& b);

/// out = A x (column vector): bitwise identical to the dense
/// operator*(Matrix, Vector) given finite entries. No aliasing.
void multiply_into(Vector& out, const SparseMatrix& a, const Vector& x);

/// out = x A (row vector): bitwise identical to the dense
/// operator*(Vector, Matrix) given finite entries. No aliasing.
void multiply_left_into(Vector& out, const Vector& x, const SparseMatrix& a);

/// out += a. Bitwise identical to the dense += when `out` holds no -0.0
/// entries (true for any multiply_into result; see the header comment).
void add_into(Matrix& out, const SparseMatrix& a);

Matrix operator*(const SparseMatrix& a, const Matrix& b);
Matrix operator*(const Matrix& a, const SparseMatrix& b);
Vector operator*(const SparseMatrix& a, const Vector& x);
Vector operator*(const Vector& x, const SparseMatrix& a);

}  // namespace gs::linalg
