// The full-width log-reduction loop, kept as the test oracle for
// qbd::solve_r_logreduction's compact one (as dense_boundary_oracle.hpp
// is for the boundary): every iterate H, L, G, T is carried as a d x d
// matrix, including the columns outside A2's support that are exactly
// zero. Plain multiply_into products and per-column Lu::solve sweeps,
// with the solver's association and stopping rule: the solver's packed
// GEMM and blocked solves keep every term order of these, so the two
// must agree bit for bit. For tests only.
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "qbd/rmatrix.hpp"
#include "util/error.hpp"

namespace gs::qbd::testing {

// X = A^{-1} B one column at a time through Lu::solve(Vector).
inline void solve_by_columns(const linalg::Lu& lu, const linalg::Matrix& b,
                             linalg::Matrix& x) {
  x.assign_zero(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const linalg::Vector col = lu.solve(b.col(c));
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, c) = col[i];
  }
}

/// R and G by logarithmic reduction on full-width iterates. Throws
/// gs::NumericalError with the solver's text on the solver's failures.
inline RSolveResult full_width_logreduction(const linalg::Matrix& a0,
                                            const linalg::Matrix& a1,
                                            const linalg::Matrix& a2,
                                            const RSolveOptions& opts = {}) {
  using linalg::Matrix;
  const std::size_t d = a1.rows();
  Matrix h, l, g, t, u, lh, hh, ll, iu, incr, tmp;

  Matrix neg_a1 = a1;
  neg_a1 *= -1.0;
  const linalg::Lu lu(neg_a1);
  solve_by_columns(lu, a0, h);
  solve_by_columns(lu, a2, l);

  RSolveResult out;
  g = l;
  t = h;
  bool converged = false;
  for (int it = 1; it <= opts.max_iter; ++it) {
    linalg::multiply_into(u, h, l);
    linalg::multiply_into(lh, l, h);
    linalg::multiply_into(hh, h, h);
    linalg::multiply_into(ll, l, l);
    u += lh;
    iu.assign_zero(d, d);
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t j = 0; j < d; ++j)
        iu(i, j) = (i == j ? 1.0 : 0.0) - u(i, j);
    const linalg::Lu lu_u(iu);
    solve_by_columns(lu_u, hh, h);
    solve_by_columns(lu_u, ll, l);
    linalg::multiply_into(incr, t, l);
    linalg::multiply_into(tmp, t, h);
    g += incr;
    std::swap(t, tmp);
    out.iterations = it;
    if (incr.max_abs() <= opts.tol && t.max_abs() <= opts.tol) {
      converged = true;
      break;
    }
  }

  linalg::multiply_into(tmp, a0, g);
  iu = a1;
  iu += tmp;
  iu *= -1.0;
  const linalg::Lu lu_negu(iu);
  lu_negu.solve_right_into(a0, out.r);
  out.g = g;
  out.residual = r_residual(out.r, a0, a1, a2);
  if (!converged) {
    throw NumericalError(
        "logarithmic reduction for R exhausted max_iter=" +
        std::to_string(opts.max_iter) + " (last increment " +
        std::to_string(incr.max_abs()) + " > tol " +
        std::to_string(opts.tol) + ", residual " +
        std::to_string(out.residual) + ")");
  }
  if (out.residual > 1e-8 * std::max(1.0, a1.max_abs())) {
    throw NumericalError(
        "logarithmic reduction for R did not converge (residual " +
        std::to_string(out.residual) + " after " +
        std::to_string(out.iterations) + " iterations)");
  }
  return out;
}

}  // namespace gs::qbd::testing
