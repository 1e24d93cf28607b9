#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace gs::linalg {

namespace {

// Right-hand sides per register block of the blocked substitution.
constexpr std::size_t kLuRhsBlock = 4;

// Column-blocked substitution for right-hand-side columns [c0, c0 + w)
// of b into x: kLuRhsBlock columns advance through both sweeps together
// in register accumulators, so each factor row is read once per block
// instead of once per column. The solution rows live in x itself (the
// forward sweep's y is overwritten in place by the back sweep), so the
// kernel needs no scratch. Every column keeps its own term order
// (ascending j, one multiply and one subtract per term, one final
// division), so the result is bitwise identical to the one-column-at-a-
// time sweep of Lu::solve(const Vector&).
//
// An edge block (kFull false, w < kLuRhsBlock) pads its missing lanes
// with copies of its last column: they read that column of b and of x,
// so they compute exactly its values, and they are never stored.
template <bool kFull>
void solve_rhs_block(std::size_t n, const double* lu, const std::size_t* perm,
                     const double* b, double* x, std::size_t cols,
                     std::size_t c0, std::size_t w) {
  constexpr std::size_t W = kLuRhsBlock;
  std::size_t lane[W];
  for (std::size_t l = 0; l < W; ++l) lane[l] = kFull ? l : std::min(l, w - 1);
  const std::size_t stored = kFull ? W : w;
  double s[W];
  // Forward substitution with L (unit diagonal), applying P to b.
  for (std::size_t i = 0; i < n; ++i) {
    const double* brow = b + perm[i] * cols + c0;
    for (std::size_t l = 0; l < W; ++l) s[l] = brow[lane[l]];
    const double* lrow = lu + i * n;
    for (std::size_t j = 0; j < i; ++j) {
      const double m = lrow[j];
      const double* yj = x + j * cols + c0;
      for (std::size_t l = 0; l < W; ++l) s[l] -= m * yj[lane[l]];
    }
    double* yi = x + i * cols + c0;
    for (std::size_t l = 0; l < stored; ++l) yi[l] = s[l];
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* urow = lu + ii * n;
    double* yi = x + ii * cols + c0;
    for (std::size_t l = 0; l < W; ++l) s[l] = yi[lane[l]];
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double m = urow[j];
      const double* yj = x + j * cols + c0;
      for (std::size_t l = 0; l < W; ++l) s[l] -= m * yj[lane[l]];
    }
    const double piv = urow[ii];
    for (std::size_t l = 0; l < stored; ++l) yi[l] = s[l] / piv;
  }
}

}  // namespace

Lu::Lu(const Matrix& a, double pivot_tol) { factor(a, pivot_tol); }

void Lu::factor(const Matrix& a, double pivot_tol) {
  GS_CHECK(a.is_square(), "LU needs a square matrix");
  n_ = a.rows();
  lu_ = a;
  perm_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
  perm_sign_ = 1;
  const double scale = std::max(a.max_abs(), 1.0);

  // Elimination on row pointers into the packed factor: row k is the
  // pivot row, row r the one being updated.
  const std::size_t n = n_;
  double* m = lu_.data();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining entry of column k up.
    std::size_t piv = k;
    double best = std::fabs(m[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(m[r * n + k]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < pivot_tol * scale) {
      throw NumericalError("LU: matrix is singular to working precision");
    }
    double* rk = m + k * n;
    if (piv != k) {
      std::swap_ranges(rk, rk + n, m + piv * n);
      std::swap(perm_[k], perm_[piv]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / rk[k];
    for (std::size_t r = k + 1; r < n; ++r) {
      double* rr = m + r * n;
      const double mult = rr[k] * inv_pivot;
      rr[k] = mult;
      if (mult == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) rr[c] -= mult * rk[c];
    }
  }
}

void Lu::solve_into(const Vector& b, Vector& x) const {
  GS_CHECK(b.size() == n_, "LU solve: rhs length mismatch");
  GS_CHECK(&x != &b, "LU solve_into: x aliases b");
  x.resize(n_);
  const double* lu = lu_.data();
  // Forward substitution with L (unit diagonal), applying P to b.
  for (std::size_t i = 0; i < n_; ++i) {
    const double* lrow = lu + i * n_;
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lrow[j] * x[j];
    x[i] = s;
  }
  // Back substitution with U.
  for (std::size_t ii = n_; ii-- > 0;) {
    const double* urow = lu + ii * n_;
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) s -= urow[j] * x[j];
    x[ii] = s / urow[ii];
  }
}

Vector Lu::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  Matrix x;
  solve_into(b, x);
  return x;
}

void Lu::solve_into(const Matrix& b, Matrix& x) const {
  GS_CHECK(b.rows() == n_, "LU solve: rhs row count mismatch");
  GS_CHECK(&x != &b, "LU solve_into: x aliases b");
  x.assign_zero(n_, b.cols());
  const std::size_t cols = b.cols();
  std::size_t c0 = 0;
  for (; c0 + kLuRhsBlock <= cols; c0 += kLuRhsBlock)
    solve_rhs_block<true>(n_, lu_.data(), perm_.data(), b.data(), x.data(),
                          cols, c0, kLuRhsBlock);
  if (c0 < cols)
    solve_rhs_block<false>(n_, lu_.data(), perm_.data(), b.data(), x.data(),
                           cols, c0, cols - c0);
}

Vector Lu::solve_left(const Vector& b) const {
  GS_CHECK(b.size() == n_, "LU solve_left: rhs length mismatch");
  // x A = b  <=>  A^T x^T = b^T, and A^T = U^T L^T P.
  // 1) U^T y = b : forward substitution (U^T is lower triangular).
  Vector y(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(j, i) * y[j];
    y[i] = s / lu_(i, i);
  }
  // 2) L^T z = y : back substitution (unit diagonal).
  Vector z(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) s -= lu_(j, ii) * z[j];
    z[ii] = s;
  }
  // 3) P x = z, i.e. x[perm_[i]] = z[i].
  Vector x(n_);
  for (std::size_t i = 0; i < n_; ++i) x[perm_[i]] = z[i];
  return x;
}

void Lu::solve_right_into(const Matrix& b, Matrix& x) const {
  GS_CHECK(b.cols() == n_, "LU solve_right: rhs column count mismatch");
  GS_CHECK(&x != &b, "LU solve_right_into: x aliases b");
  x.assign_zero(b.rows(), n_);
  // When the factor keeps at most half its off-diagonal entries (the
  // factors of the QBD chains' -A1 blocks retain a few-percent fill), the
  // sweeps visit its nonzeros only and skip zero unknowns. The pattern is
  // read here, its one reader, by scanning the factor once per call.
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t c = 0; c < n_; ++c)
      if (c != r && lu_(r, c) != 0.0) ++nnz;
  const bool sparse = n_ > 0 && 2 * nnz <= n_ * (n_ - 1);
  // Right-looking sweeps: once y[j] is final, its contribution is
  // subtracted from every later unknown in one pass over the contiguous
  // row j of the factor. Each inner loop is an axpy, so it vectorizes
  // without reassociating any floating-point sum.
  Vector y(n_);  // scratch shared by every row
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const double* brow = b.data() + r * n_;
    // U^T y = b (forward, with division by the U diagonal).
    for (std::size_t i = 0; i < n_; ++i) y[i] = brow[i];
    for (std::size_t j = 0; j < n_; ++j) {
      const double* ujrow = lu_.data() + j * n_;
      y[j] /= ujrow[j];
      const double yj = y[j];
      if (sparse) {
        if (yj == 0.0) continue;
        for (std::size_t i = j + 1; i < n_; ++i)
          if (ujrow[i] != 0.0) y[i] -= ujrow[i] * yj;
      } else {
        for (std::size_t i = j + 1; i < n_; ++i) y[i] -= ujrow[i] * yj;
      }
    }
    // L^T z = y (backward, unit diagonal), in place.
    for (std::size_t j = n_; j-- > 1;) {
      const double* ljrow = lu_.data() + j * n_;
      const double zj = y[j];
      if (sparse) {
        if (zj == 0.0) continue;
        for (std::size_t i = 0; i < j; ++i)
          if (ljrow[i] != 0.0) y[i] -= ljrow[i] * zj;
      } else {
        for (std::size_t i = 0; i < j; ++i) y[i] -= ljrow[i] * zj;
      }
    }
    double* xrow = x.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) xrow[perm_[i]] = y[i];
  }
}

Matrix Lu::inverse() const {
  return solve(Matrix::identity(n_));
}

double Lu::determinant() const {
  double d = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) d *= lu_(i, i);
  return d;
}

Vector solve(const Matrix& a, const Vector& b) { return Lu(a).solve(b); }
Vector solve_left(const Matrix& a, const Vector& b) {
  return Lu(a).solve_left(b);
}
Matrix inverse(const Matrix& a) { return Lu(a).inverse(); }

}  // namespace gs::linalg
