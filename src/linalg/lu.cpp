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

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: bring the largest remaining entry of column k up.
    std::size_t piv = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < pivot_tol * scale) {
      throw NumericalError("LU: matrix is singular to working precision");
    }
    if (piv != k) {
      for (std::size_t c = 0; c < n_; ++c) std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double m = lu_(r, k) * inv_pivot;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n_; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }

  // Compress the off-diagonal pattern of the factor when it keeps at most
  // half its entries: the factors of the QBD chains' -A1 blocks retain a
  // few-percent fill, and the right-division sweeps then visit stored
  // nonzeros only. The O(n^2) scan is negligible next to the O(n^3)
  // factorization above.
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t c = 0; c < n_; ++c)
      if (c != r && lu_(r, c) != 0.0) ++nnz;
  factor_sparse_ = n_ > 0 && 2 * nnz <= n_ * (n_ - 1);
  upper_ptr_.assign(1, 0);
  lower_ptr_.assign(1, 0);
  upper_idx_.clear();
  lower_idx_.clear();
  upper_val_.clear();
  lower_val_.clear();
  if (factor_sparse_) {
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t c = r + 1; c < n_; ++c)
        if (lu_(r, c) != 0.0) {
          upper_idx_.push_back(c);
          upper_val_.push_back(lu_(r, c));
        }
      upper_ptr_.push_back(upper_idx_.size());
      for (std::size_t c = 0; c < r; ++c)
        if (lu_(r, c) != 0.0) {
          lower_idx_.push_back(c);
          lower_val_.push_back(lu_(r, c));
        }
      lower_ptr_.push_back(lower_idx_.size());
    }
  }
}

Vector Lu::solve(const Vector& b) const {
  GS_CHECK(b.size() == n_, "LU solve: rhs length mismatch");
  Vector y(n_);
  // Forward substitution with L (unit diagonal), applying P to b.
  for (std::size_t i = 0; i < n_; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * y[j];
    y[i] = s;
  }
  // Back substitution with U.
  for (std::size_t ii = n_; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) s -= lu_(ii, j) * y[j];
    y[ii] = s / lu_(ii, ii);
  }
  return y;
}

Matrix Lu::solve(const Matrix& b) const {
  Matrix x;
  solve_into(b, x);
  return x;
}

void Lu::solve_into(const Matrix& b, Matrix& x, bool blocked_rhs) const {
  GS_CHECK(b.rows() == n_, "LU solve: rhs row count mismatch");
  GS_CHECK(&x != &b, "LU solve_into: x aliases b");
  x.assign_zero(n_, b.cols());
  if (!blocked_rhs) {
    // The pre-tiling sweep, column by column — kept verbatim as the
    // old-kernel baseline the bench gate compares against.
    Vector y(n_);
    for (std::size_t c = 0; c < b.cols(); ++c) {
      for (std::size_t i = 0; i < n_; ++i) {
        double s = b(perm_[i], c);
        for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * y[j];
        y[i] = s;
      }
      for (std::size_t ii = n_; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t j = ii + 1; j < n_; ++j) s -= lu_(ii, j) * y[j];
        y[ii] = s / lu_(ii, ii);
      }
      for (std::size_t r = 0; r < n_; ++r) x(r, c) = y[r];
    }
    return;
  }
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
  // Right-looking sweeps: once y[j] (respectively z[j]) is final, its
  // contribution is subtracted from every later unknown in one pass over
  // the contiguous row j of the factor. Each inner loop is an axpy, so it
  // vectorizes without reassociating any floating-point sum.
  Vector y(n_), z(n_);  // scratch shared by every row
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const double* brow = b.data() + r * n_;
    // U^T y = b (forward, with division by the U diagonal).
    for (std::size_t i = 0; i < n_; ++i) y[i] = brow[i];
    if (factor_sparse_) {
      for (std::size_t j = 0; j < n_; ++j) {
        y[j] /= lu_(j, j);
        const double yj = y[j];
        if (yj == 0.0) continue;
        for (std::size_t e = upper_ptr_[j]; e < upper_ptr_[j + 1]; ++e)
          y[upper_idx_[e]] -= upper_val_[e] * yj;
      }
    } else {
      for (std::size_t j = 0; j < n_; ++j) {
        const double* ujrow = lu_.data() + j * n_;
        y[j] /= ujrow[j];
        const double yj = y[j];
        for (std::size_t i = j + 1; i < n_; ++i) y[i] -= ujrow[i] * yj;
      }
    }
    // L^T z = y (backward, unit diagonal).
    for (std::size_t i = 0; i < n_; ++i) z[i] = y[i];
    if (factor_sparse_) {
      for (std::size_t j = n_; j-- > 1;) {
        const double zj = z[j];
        if (zj == 0.0) continue;
        for (std::size_t e = lower_ptr_[j]; e < lower_ptr_[j + 1]; ++e)
          z[lower_idx_[e]] -= lower_val_[e] * zj;
      }
    } else {
      for (std::size_t j = n_; j-- > 1;) {
        const double* ljrow = lu_.data() + j * n_;
        const double zj = z[j];
        for (std::size_t i = 0; i < j; ++i) z[i] -= ljrow[i] * zj;
      }
    }
    double* xrow = x.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) xrow[perm_[i]] = z[i];
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
