#include "linalg/gth.hpp"

#include "util/error.hpp"

namespace gs::linalg {

Vector gth_stationary(const Matrix& q) {
  GS_CHECK(q.is_square(), "GTH needs a square generator");
  const std::size_t n = q.rows();
  GS_CHECK(n > 0, "GTH needs a non-empty generator");
  if (n == 1) return {1.0};

  // Work on a copy holding only the off-diagonal rates; the diagonal is
  // implied (negative row sum) and never touched, which is what makes the
  // procedure subtraction-free.
  Matrix w = q;
  for (std::size_t i = 0; i < n; ++i) w(i, i) = 0.0;

  // Censoring elimination, folding state k into states 0..k-1.
  for (std::size_t k = n - 1; k >= 1; --k) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += w(k, j);
    if (s <= 0.0) {
      throw NumericalError(
          "GTH: zero departure rate to eliminated block; chain is reducible");
    }
    for (std::size_t i = 0; i < k; ++i) w(i, k) /= s;
    for (std::size_t i = 0; i < k; ++i) {
      const double wik = w(i, k);
      if (wik == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (j != i) w(i, j) += wik * w(k, j);
      }
    }
  }

  Vector x(n, 0.0);
  x[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i < k; ++i) s += x[i] * w(i, k);
    x[k] = s;
  }
  double total = 0.0;
  for (double v : x) total += v;
  for (double& v : x) v /= total;
  return x;
}

void GthFactor::factor(const Matrix& s, const Vector& exit) {
  GS_CHECK(s.is_square(), "GthFactor needs a square block");
  const std::size_t n = s.rows();
  GS_CHECK(exit.size() == n, "GthFactor: exit-rate length mismatch");
  f_ = s;
  t_ = exit;
  for (std::size_t k = 0; k < n; ++k) {
    // The reduced row k sums to -t_k over columns >= k, so its pivot is
    // t_k plus the rates to the columns still to be eliminated. The
    // diagonal entry it replaces (S's own, plus updates from earlier
    // pivots) is never read.
    double* fk = f_.data() + k * n;
    double piv = t_[k];
    for (std::size_t l = k + 1; l < n; ++l) piv += fk[l];
    if (!(piv > 0.0)) {
      throw NumericalError(
          "GthFactor: a state cannot reach the exit; the block is singular");
    }
    fk[k] = piv;
    for (std::size_t j = k + 1; j < n; ++j) {
      double* fj = f_.data() + j * n;
      const double m = fj[k] / piv;
      fj[k] = m;
      if (m == 0.0) continue;
      for (std::size_t l = k + 1; l < n; ++l) fj[l] += m * fk[l];
      t_[j] += m * t_[k];
    }
  }
}

void GthFactor::solve_right_into(const Matrix& b, Matrix& x) const {
  const std::size_t n = f_.rows();
  GS_CHECK(b.cols() == n, "GthFactor solve: rhs column count mismatch");
  GS_CHECK(&x != &b, "GthFactor solve_right_into: x aliases b");
  x = b;
  // Row by row, x (-S) = b with -S = L U: L has unit diagonal and
  // multipliers -f_(j, k) below it, U the pivots and rates -f_(k, l) above
  // it. Both sweeps add non-negative terms in right-looking order over
  // contiguous rows of the factor.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double* xr = x.data() + r * n;
    for (std::size_t k = 0; k < n; ++k) {  // y U = b
      const double* fk = f_.data() + k * n;
      const double yk = xr[k] /= fk[k];
      if (yk == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) xr[j] += yk * fk[j];
    }
    for (std::size_t k = n; k-- > 1;) {  // x L = y
      const double* fk = f_.data() + k * n;
      const double xk = xr[k];
      if (xk == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) xr[j] += xk * fk[j];
    }
  }
}

Vector gth_stationary_dtmc(const Matrix& p) {
  GS_CHECK(p.is_square(), "GTH needs a square transition matrix");
  // pi P = pi is pi (P - I) = 0; P - I has the generator sign pattern and
  // the same off-diagonal entries as P, which are all GTH looks at.
  return gth_stationary(p);
}

}  // namespace gs::linalg
