// Grassmann–Taksar–Heyman (GTH) stationary solver.
//
// GTH computes the stationary vector of an irreducible Markov chain using
// only additions, multiplications and divisions of non-negative quantities,
// so it is immune to the catastrophic cancellation that plagues naive
// global-balance solves (eq. (9) of the paper). We use it wherever a full
// stationary vector of a moderate-size chain is needed: the drift condition
// of Theorem 4.4 and the small fitted-PH sanity checks.
#pragma once

#include "linalg/matrix.hpp"

namespace gs::linalg {

/// Stationary distribution pi of an irreducible CTMC with generator Q:
/// pi Q = 0, pi e = 1. Only off-diagonal entries of Q are read, so any
/// matrix whose off-diagonal part holds the transition rates is accepted.
/// Throws gs::NumericalError if the chain is reducible (a zero pivot).
Vector gth_stationary(const Matrix& q);

/// Subtraction-free LU of -S for a sub-generator S of transient states:
/// non-negative off-diagonal rates and known exit rates t = -S e >= 0
/// (the rates out of the block). Gaussian elimination without pivoting on
/// the M-matrix -S keeps every Schur complement an M-matrix, and carrying
/// the exit rates of the reduced rows (t_j += (S_jk / pivot_k) t_k) gives
/// each pivot as t_k plus its row's off-diagonal rates — the GTH idea
/// extended to absorbing blocks. Only additions of non-negative terms
/// remain, so the pivots, and X = B (-S)^{-1} for B >= 0, keep full
/// relative accuracy entrywise however close -S is to singular (a partial-
/// pivot LU loses about log10 of its condition number in digits there).
class GthFactor {
 public:
  /// Factor -S from the off-diagonal rates of `s` (its diagonal is not
  /// read) and the exit rates `exit`, reusing this object's storage.
  /// Throws gs::NumericalError on a zero pivot: some states cannot reach
  /// an exit, so -S is singular.
  void factor(const Matrix& s, const Vector& exit);

  std::size_t size() const { return f_.rows(); }

  /// X = B (-S)^{-1} into `x`, reusing its storage. `x` must not alias `b`.
  void solve_right_into(const Matrix& b, Matrix& x) const;

 private:
  // Packed factor: pivots on the diagonal, the reduced rows' off-diagonal
  // rates above it, the elimination multipliers S_jk / pivot_k below it.
  Matrix f_;
  Vector t_;
};

/// Stationary distribution of an irreducible DTMC with transition matrix P:
/// pi P = pi, pi e = 1. Implemented via gth_stationary(P - I), which has
/// the same off-diagonal structure.
Vector gth_stationary_dtmc(const Matrix& p);

}  // namespace gs::linalg
