// The dense balance-LU boundary solve, kept as the test oracle for
// qbd::solve_with_r's level reduction (as successive substitution is for
// R): assemble the whole (D+d) x (D+d) balance matrix of levels 0..b with
// level b's block B11 + R A2, replace one equation by the normalization,
// and solve it with one partial-pivot LU. Cubic in D + d, so it is for
// tests only.
#pragma once

#include <algorithm>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "qbd/qbd.hpp"
#include "util/error.hpp"

namespace gs::qbd::testing {

/// pi_0..pi_b for `process` given its R, normalized to total mass 1.
/// Throws gs::NumericalError with the solver's text when the balance
/// system is singular.
inline std::vector<linalg::Vector> dense_boundary(const QbdProcess& process,
                                                  const linalg::Matrix& r) {
  using linalg::Matrix;
  using linalg::Vector;
  const QbdBlocks& blk = process.blocks();
  const std::size_t D = process.boundary_size();
  const std::size_t d = process.repeating_size();
  const std::size_t n = D + d;

  // corner(0) holds levels 0..b with B11 at level b and no A0.
  Matrix m = process.corner(0);
  const Matrix ra2 = r * blk.a2;
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j) m(D + i, D + j) += ra2(i, j);

  // Column form M^T x^T = 0 with the first equation replaced by
  // x_B e + x_b (I-R)^{-1} e = 1.
  Matrix mt = m.transpose();
  const Matrix i_minus_r_inv = linalg::inverse(Matrix::identity(d) - r);
  const Vector tail = i_minus_r_inv * linalg::ones(d);
  for (std::size_t j = 0; j < D; ++j) mt(0, j) = 1.0;
  for (std::size_t j = 0; j < d; ++j) mt(0, D + j) = tail[j];
  Vector rhs(n, 0.0);
  rhs[0] = 1.0;
  Vector x;
  try {
    x = linalg::Lu(mt).solve(rhs);
  } catch (const NumericalError&) {
    throw NumericalError(
        "QBD boundary system is singular — the chain is likely reducible "
        "(check QbdProcess::is_irreducible())");
  }
  for (double& v : x) v = std::max(v, 0.0);

  std::vector<Vector> boundary;
  std::size_t off = 0;
  for (std::size_t i = 0; i <= process.boundary_levels(); ++i) {
    const std::size_t dim = i < process.boundary_levels()
                                ? process.level_dim(i)
                                : d;
    boundary.emplace_back(x.begin() + static_cast<std::ptrdiff_t>(off),
                          x.begin() + static_cast<std::ptrdiff_t>(off + dim));
    off += dim;
  }
  double total = linalg::sum(boundary.back() * i_minus_r_inv);
  for (std::size_t i = 0; i + 1 < boundary.size(); ++i)
    total += linalg::sum(boundary[i]);
  for (auto& lvl : boundary)
    for (double& v : lvl) v /= total;
  return boundary;
}

}  // namespace gs::qbd::testing
