// LU decomposition with partial pivoting, and the solve/inverse helpers the
// matrix-geometric solver is built on.
//
// The QBD algorithms solve systems against the same matrix with several
// right-hand sides, so the factorization is a first-class object that can
// be reused across them. Row systems x A = b reuse the same factors via
// A^T = U^T L^T P.
//
// The factor is lean: factor() eliminates on row pointers into one packed
// matrix and keeps nothing else but the permutation, because the R solve
// factors a few small shifted systems per Newton step for each right
// division it runs. The sparsity pattern the right division exploits is
// counted by solve_right_into itself.
#pragma once

#include "linalg/matrix.hpp"

namespace gs::linalg {

class Lu {
 public:
  /// Empty 0x0 factor, to be filled by factor().
  Lu() = default;

  /// Factor PA = LU. Throws gs::NumericalError if A is singular to working
  /// precision (pivot below `pivot_tol` * max|A|).
  explicit Lu(const Matrix& a, double pivot_tol = 1e-13);

  /// Refactor in place for a new matrix, reusing this object's storage
  /// (no allocation once it has grown to the largest size seen) — for
  /// callers that factor same-shaped pivots over and over. Same
  /// arithmetic, bit for bit, as the constructor, and the same
  /// gs::NumericalError on a singular `a`; the factor is then unusable
  /// until the next successful call.
  void factor(const Matrix& a, double pivot_tol = 1e-13);

  std::size_t size() const { return n_; }

  /// Solve A x = b (column system).
  Vector solve(const Vector& b) const;
  /// Solve A x = b into `x`, reusing its storage (no allocation when it
  /// already holds size() entries). Same sweeps in the same order as
  /// solve(const Vector&), bit for bit. `x` must not alias `b`.
  void solve_into(const Vector& b, Vector& x) const;
  /// Solve A X = B column-by-column.
  Matrix solve(const Matrix& b) const;
  /// Solve A X = B into `x`, reusing its storage (no allocation when the
  /// shape already matches). `x` must not alias `b`. Same arithmetic,
  /// bit for bit, as solve(const Matrix&) and as solve(const Vector&) on
  /// each column: the substitution sweeps advance a fixed-width register
  /// block of four right-hand sides together, so each factor row is read
  /// once per block and the per-term updates run as short vector
  /// operations, and the solution is built in `x` itself.
  void solve_into(const Matrix& b, Matrix& x) const;
  /// Solve x A = b (row system), reusing the same factors.
  Vector solve_left(const Vector& b) const;
  /// Solve X A = B row-by-row into `x`, reusing its storage — the right
  /// division R = A0 N^{-1} that ends the R solve, replacing an
  /// explicitly formed inverse. The sweeps run in
  /// right-looking (axpy) order over contiguous rows of the factor, so
  /// they vectorize without FP reassociation, and when the factor keeps
  /// at most half its off-diagonal entries they visit its nonzeros only
  /// (the pattern is counted here, not by factor(): this is its only
  /// reader, and it runs once per R solve against several factorizations).
  /// The result is deterministic for a fixed factor but may differ from
  /// solve_left in the last ulp (update order of the back substitution is
  /// reversed; skipped +-0.0 terms). `x` must not alias `b`.
  void solve_right_into(const Matrix& b, Matrix& x) const;

  /// A^{-1} (use sparingly; prefer solve()).
  Matrix inverse() const;

  /// det(A), including pivoting sign.
  double determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;  // packed L (unit diagonal implied) and U
  // Row permutation: row i of PA is row perm_[i] of A.
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// One-shot convenience: solve A x = b.
Vector solve(const Matrix& a, const Vector& b);
/// One-shot convenience: solve x A = b.
Vector solve_left(const Matrix& a, const Vector& b);
/// One-shot convenience: A^{-1}.
Matrix inverse(const Matrix& a);

}  // namespace gs::linalg
