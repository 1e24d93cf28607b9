// Successive substitution for Neuts' R, kept as the test oracle for
// qbd::solve_r_logreduction (as full_width_logreduction_oracle.hpp is for
// its compact loop and dense_boundary_oracle.hpp for the boundary):
//
//     R_next (-A1) = A0 + R (R A2),   R_0 = 0,
//
// solved by a right division against one LU of -A1. Linear and slow, but
// trivially correct. Dense products throughout. For tests only.
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "qbd/rmatrix.hpp"
#include "util/error.hpp"

namespace gs::qbd::testing {

/// R by successive substitution from R = 0 (`g` stays empty). Throws
/// gs::NumericalError with the iteration count and residual when
/// `max_iter` is exhausted before the step size reaches `tol`, or when the
/// converged iterate fails the defining-equation residual check.
inline RSolveResult substitution(const linalg::Matrix& a0,
                                 const linalg::Matrix& a1,
                                 const linalg::Matrix& a2,
                                 const RSolveOptions& opts = {}) {
  using linalg::Matrix;
  const std::size_t d = a1.rows();
  GS_CHECK(a0.rows() == d && a2.rows() == d, "R solve: block size mismatch");

  // A1's diagonal dominates its off-diagonal plus all exits, so -A1 is an
  // M-matrix and invertible.
  Matrix neg_a1 = a1;
  neg_a1 *= -1.0;
  const linalg::Lu lu(neg_a1);

  RSolveResult out;
  Matrix r(d, d), ra2, num, next;
  bool converged = false;
  double delta = 0.0;
  for (int it = 1; it <= opts.max_iter; ++it) {
    linalg::multiply_into(ra2, r, a2);
    linalg::multiply_into(num, r, ra2);
    num += a0;
    lu.solve_right_into(num, next);
    delta = linalg::max_abs_diff(next, r);
    std::swap(r, next);
    out.iterations = it;
    if (delta <= opts.tol) {
      converged = true;
      break;
    }
  }
  out.residual = r_residual(r, a0, a1, a2);
  if (!converged) {
    throw NumericalError(
        "successive substitution for R exhausted max_iter=" +
        std::to_string(opts.max_iter) + " (last step " +
        std::to_string(delta) + " > tol " + std::to_string(opts.tol) +
        ", residual " + std::to_string(out.residual) +
        "); the chain is likely not positive recurrent");
  }
  if (out.residual > 1e-8 * std::max(1.0, a1.max_abs())) {
    throw NumericalError(
        "successive substitution for R converged in " +
        std::to_string(out.iterations) + " iterations but the residual " +
        std::to_string(out.residual) +
        " fails the defining equation; the chain is likely not positive "
        "recurrent");
  }
  out.r = std::move(r);
  return out;
}

}  // namespace gs::qbd::testing
