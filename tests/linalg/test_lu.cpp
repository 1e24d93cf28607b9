#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

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
// as the column-at-a-time solve(Vector) and as the blocked_rhs = false
// sweep computes it, for every edge-block width (widths 0-17 cover a
// missing, full and partial edge block), on factors with row exchanges
// and negative pivots, and on right-hand sides holding zeros of either
// sign.
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
      Matrix blocked, columnwise;
      lu.solve_into(b, blocked);
      lu.solve_into(b, columnwise, /*blocked_rhs=*/false);
      ASSERT_EQ(blocked.rows(), n);
      ASSERT_EQ(blocked.cols(), width);
      ASSERT_EQ(columnwise.cols(), width);
      EXPECT_TRUE(same_bits(blocked, columnwise));
      for (std::size_t c = 0; c < width; ++c) {
        const Vector x = lu.solve(b.col(c));
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(std::memcmp(&x[i], blocked.data() + i * width + c,
                                sizeof(double)),
                    0)
              << "row " << i << " col " << c;
      }
      // Reuse: a second solve into the same, already-shaped output.
      lu.solve_into(b, blocked);
      EXPECT_TRUE(same_bits(blocked, columnwise));
    }
  }
}

TEST(Lu, SolveIntoRejectsAliasingAndBadShapes) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Lu lu(a);
  Matrix b(2, 5);
  EXPECT_THROW(lu.solve_into(b, b), gs::InvalidArgument);
  EXPECT_THROW(lu.solve_into(b, b, /*blocked_rhs=*/false),
               gs::InvalidArgument);
  Matrix bad(3, 2), x;
  EXPECT_THROW(lu.solve_into(bad, x), gs::InvalidArgument);
}

}  // namespace
