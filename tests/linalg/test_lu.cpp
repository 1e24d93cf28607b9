#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using gs::linalg::Lu;
using gs::linalg::Matrix;
using gs::linalg::Vector;

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = Lu(a).solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolveLeftMatchesTransposedSolve) {
  Matrix a{{2.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 4.0}};
  const Vector b{1.0, 2.0, 3.0};
  const Vector x = Lu(a).solve_left(b);
  // x A = b  <=>  A^T x = b
  const Vector y = Lu(a.transpose()).solve(b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], y[i], 1e-12);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = Lu(a).solve(Vector{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(Lu{a}, gs::NumericalError);
}

TEST(Lu, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(Lu{a}, gs::InvalidArgument);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  Matrix a{{4.0, 1.0, 0.5}, {1.0, 3.0, 1.0}, {0.5, 1.0, 5.0}};
  const Matrix inv = gs::linalg::inverse(a);
  const Matrix prod = a * inv;
  EXPECT_LT(gs::linalg::max_abs_diff(prod, Matrix::identity(3)), 1e-12);
}

TEST(Lu, DeterminantMatchesClosedForm) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(Lu(a).determinant(), -2.0, 1e-12);
  // Triangular: product of diagonal.
  Matrix t{{2.0, 5.0}, {0.0, 3.0}};
  EXPECT_NEAR(Lu(t).determinant(), 6.0, 1e-12);
}

TEST(Lu, MatrixRhsSolve) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  const Matrix x = Lu(a).solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

TEST(Lu, SolveRightIntoSolvesRowSystems) {
  // X A = B with a dense, well-conditioned A; verify by multiplying back.
  Matrix a{{4.0, 1.0, 0.5}, {1.0, 3.0, 1.0}, {0.5, 1.0, 5.0}};
  Matrix b{{1.0, 2.0, 3.0}, {0.0, -1.0, 4.0}};
  const Lu lu(a);
  Matrix x;
  lu.solve_right_into(b, x);
  EXPECT_LT(gs::linalg::max_abs_diff(x * a, b), 1e-12);
  // Each row agrees with solve_left on that row (up to roundoff; the
  // sweep orders differ).
  for (std::size_t r = 0; r < 2; ++r) {
    Vector brow(3);
    for (std::size_t c = 0; c < 3; ++c) brow[c] = b(r, c);
    const Vector xl = lu.solve_left(brow);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(x(r, c), xl[c], 1e-12);
  }
}

TEST(Lu, SolveRightIntoSparseFactorPath) {
  // A banded system keeps its LU factor far under half dense, so the
  // compressed sweeps run; cross-check against the dense row solver.
  const std::size_t n = 20;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 4.0 + 0.1 * static_cast<double>(i);
    if (i + 1 < n) {
      a(i, i + 1) = 1.0;
      a(i + 1, i) = -0.5;
    }
  }
  gs::util::Rng rng(7);
  Matrix b(3, n);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform() * 2.0 - 1.0;
  const Lu lu(a);
  Matrix x;
  lu.solve_right_into(b, x);
  EXPECT_LT(gs::linalg::max_abs_diff(x * a, b), 1e-11);
  for (std::size_t r = 0; r < 3; ++r) {
    Vector brow(n);
    for (std::size_t c = 0; c < n; ++c) brow[c] = b(r, c);
    const Vector xl = lu.solve_left(brow);
    for (std::size_t c = 0; c < n; ++c) EXPECT_NEAR(x(r, c), xl[c], 1e-11);
  }
}

bool same_bytes(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(Lu, SolveIntoVectorIsBitwiseSolve) {
  gs::util::Rng rng(99);
  Vector x(5, 3.0);  // reused across shapes: stale length and contents
  for (std::size_t n = 1; n <= 13; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if ((i * 7 + j * 3) % 4 != 0) a(i, j) = rng.uniform() * 2.0 - 1.0;
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i)
      b[i] = i % 3 == 0 ? 0.0 : rng.uniform() - 0.5;
    const Lu lu(a);
    const Vector ref = lu.solve(b);
    lu.solve_into(b, x);
    ASSERT_EQ(x.size(), n);
    EXPECT_TRUE(same_bytes(x.data(), ref.data(), n));
    // The blocked matrix solve's one-column edge block sweeps alike.
    Matrix bm(n, 1), xm;
    for (std::size_t i = 0; i < n; ++i) bm(i, 0) = b[i];
    lu.solve_into(bm, xm);
    EXPECT_TRUE(same_bytes(xm.data(), ref.data(), n));
  }
  const Lu lu(Matrix{{2.0, 1.0}, {1.0, 3.0}});
  Vector b{1.0, 2.0};
  EXPECT_THROW(lu.solve_into(b, b), gs::InvalidArgument);
  EXPECT_THROW(lu.solve_into(Vector{1.0}, x), gs::InvalidArgument);
}

// The right division as computed when factor() still compressed the
// off-diagonal pattern into row lists: the same partial-pivot elimination,
// then sweeps over the listed nonzeros when at most half the off-diagonal
// entries survive. solve_right_into must keep these bits.
Matrix listed_pattern_right_division(const Matrix& a, const Matrix& b) {
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r)
      if (std::fabs(lu(r, k)) > best) {
        best = std::fabs(lu(r, k));
        piv = r;
      }
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(piv, c));
      std::swap(perm[k], perm[piv]);
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu(r, k) * inv_pivot;
      lu(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu(r, c) -= m * lu(k, c);
    }
  }
  std::size_t nnz = 0;
  std::vector<std::vector<std::size_t>> upper(n), lower(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (c != r && lu(r, c) != 0.0) {
        ++nnz;
        (c > r ? upper : lower)[r].push_back(c);
      }
  const bool sparse = 2 * nnz <= n * (n - 1);
  Matrix x(b.rows(), n);
  for (std::size_t r = 0; r < b.rows(); ++r) {
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = b(r, i);
    for (std::size_t j = 0; j < n; ++j) {
      y[j] /= lu(j, j);
      const double yj = y[j];
      if (sparse) {
        if (yj == 0.0) continue;
        for (std::size_t c : upper[j]) y[c] -= lu(j, c) * yj;
      } else {
        for (std::size_t i = j + 1; i < n; ++i) y[i] -= lu(j, i) * yj;
      }
    }
    Vector z = y;
    for (std::size_t j = n; j-- > 1;) {
      const double zj = z[j];
      if (sparse) {
        if (zj == 0.0) continue;
        for (std::size_t c : lower[j]) z[c] -= lu(j, c) * zj;
      } else {
        for (std::size_t i = 0; i < j; ++i) z[i] -= lu(j, i) * zj;
      }
    }
    for (std::size_t i = 0; i < n; ++i) x(r, perm[i]) = z[i];
  }
  return x;
}

TEST(Lu, SolveRightIntoKeepsTheListedPatternBits) {
  gs::util::Rng rng(2024);
  const std::size_t n = 12;
  // Sparse (a QBD-like -A1: diagonal, a band and a far entry, pivots that
  // swap) and dense factors, right-hand sides with zero entries.
  Matrix sparse(n, n), dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sparse(i, i) = i % 4 == 1 ? 0.25 : 3.0 + 0.1 * static_cast<double>(i);
    if (i + 1 < n) sparse(i, i + 1) = -1.0 - 0.05 * static_cast<double>(i);
    if (i >= 2) sparse(i, i - 2) = 2.0;
    for (std::size_t j = 0; j < n; ++j)
      dense(i, j) = rng.uniform() - 0.5 + (i == j ? 4.0 : 0.0);
  }
  sparse(0, n - 1) = 0.75;
  Matrix b(5, n);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < n; ++c)
      b(r, c) = (r + c) % 3 == 0 ? 0.0 : rng.uniform() * 2.0 - 1.0;
  for (const Matrix* a : {&sparse, &dense}) {
    const Matrix ref = listed_pattern_right_division(*a, b);
    Lu lu;
    lu.factor(*a);
    Matrix x(2, 2, 9.0);
    lu.solve_right_into(b, x);
    ASSERT_EQ(x.rows(), b.rows());
    ASSERT_EQ(x.cols(), n);
    EXPECT_TRUE(same_bytes(x.data(), ref.data(), b.rows() * n));
  }
}

TEST(Lu, SolveRightIntoRejectsBadShapes) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Lu lu(a);
  Matrix bad(2, 3), x;
  EXPECT_THROW(lu.solve_right_into(bad, x), gs::InvalidArgument);
  Matrix b(2, 2);
  EXPECT_THROW(lu.solve_right_into(b, b), gs::InvalidArgument);
}

// Property: solve() then multiply recovers the RHS on random
// diagonally-dominant systems (well-conditioned by construction).
TEST(Lu, RandomRoundTrip) {
  gs::util::Rng rng(424242);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(12);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double off = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        a(i, j) = rng.uniform() * 2.0 - 1.0;
        off += std::fabs(a(i, j));
      }
      a(i, i) = off + 1.0 + rng.uniform();
    }
    Vector b(n);
    for (auto& v : b) v = rng.uniform() * 10.0 - 5.0;
    Lu lu(a);
    const Vector x = lu.solve(b);
    const Vector back = a * x;
    EXPECT_LT(gs::linalg::max_abs_diff(back, b), 1e-9);
    const Vector xl = lu.solve_left(b);
    const Vector backl = xl * a;
    EXPECT_LT(gs::linalg::max_abs_diff(backl, b), 1e-9);
  }
}

// Shape and every bit equal (memcmp, so signed zeros count).
bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t k = 0; k < a.rows() * a.cols(); ++k)
    if (std::memcmp(a.data() + k, b.data() + k, sizeof(double)) != 0)
      return false;
  return true;
}

// The blocked solve_into advances four right-hand sides per register
// block and pads the edge block. Every column must come out bit for bit
// as the column-at-a-time solve(Vector) computes it, for every edge-block
// width (widths 0-17 cover a missing, full and partial edge block), on
// factors with row exchanges and negative pivots, and on right-hand sides
// holding zeros of either sign.
TEST(Lu, BlockedSolveIntoMatchesColumnSolveBitwise) {
  gs::util::Rng rng(20261017);
  for (std::size_t n : {1, 2, 5, 12, 13, 33, 64}) {
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform() * 2.0 - 1.0;
    for (std::size_t i = 0; i < n; ++i) a(i, i) += i % 2 == 0 ? 2.0 : -2.0;
    const Lu lu(a);
    for (std::size_t width : {0, 1, 2, 3, 4, 5, 7, 8, 9, 17}) {
      SCOPED_TRACE("n " + std::to_string(n) + " width " +
                   std::to_string(width));
      Matrix b(n, width);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t c = 0; c < width; ++c) {
          const std::size_t kind = rng.uniform_int(6);
          b(i, c) = kind == 0 ? 0.0
                    : kind == 1 ? -0.0
                                : rng.uniform() * 10.0 - 5.0;
        }
      // An all-zero column: its solution is a run of signed zeros.
      if (width > 2)
        for (std::size_t i = 0; i < n; ++i) b(i, 1) = 0.0;
      Matrix blocked;
      lu.solve_into(b, blocked);
      ASSERT_EQ(blocked.rows(), n);
      ASSERT_EQ(blocked.cols(), width);
      for (std::size_t c = 0; c < width; ++c) {
        const Vector x = lu.solve(b.col(c));
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(std::memcmp(&x[i], blocked.data() + i * width + c,
                                sizeof(double)),
                    0)
              << "row " << i << " col " << c;
      }
      // Reuse: a second solve into the same, already-shaped output.
      const Matrix first = blocked;
      lu.solve_into(b, blocked);
      EXPECT_TRUE(same_bits(blocked, first));
    }
  }
}

TEST(Lu, SolveIntoRejectsAliasingAndBadShapes) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Lu lu(a);
  Matrix b(2, 5);
  EXPECT_THROW(lu.solve_into(b, b), gs::InvalidArgument);
  Matrix bad(3, 2), x;
  EXPECT_THROW(lu.solve_into(bad, x), gs::InvalidArgument);
}

}  // namespace
