#include "linalg/gth.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/lu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using gs::linalg::GthFactor;
using gs::linalg::gth_stationary;
using gs::linalg::gth_stationary_dtmc;
using gs::linalg::Matrix;
using gs::linalg::Vector;

TEST(Gth, TwoStateChainClosedForm) {
  // 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a)/(a+b).
  const double a = 2.0, b = 3.0;
  Matrix q{{-a, a}, {b, -b}};
  const Vector pi = gth_stationary(q);
  EXPECT_NEAR(pi[0], b / (a + b), 1e-14);
  EXPECT_NEAR(pi[1], a / (a + b), 1e-14);
}

TEST(Gth, SingleStateChain) {
  Matrix q{{0.0}};
  const Vector pi = gth_stationary(q);
  ASSERT_EQ(pi.size(), 1u);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

TEST(Gth, BirthDeathChainGeometric) {
  // M/M/1/K truncated queue: lambda = 1, mu = 2 on 6 states. pi_i ~ rho^i.
  const double lambda = 1.0, mu = 2.0, rho = lambda / mu;
  const std::size_t n = 6;
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) q(i, i + 1) = lambda;
    if (i > 0) q(i, i - 1) = mu;
    q(i, i) = -((i + 1 < n ? lambda : 0.0) + (i > 0 ? mu : 0.0));
  }
  const Vector pi = gth_stationary(q);
  double geo = 0.0;
  for (std::size_t i = 0; i < n; ++i) geo += std::pow(rho, double(i));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(pi[i], std::pow(rho, double(i)) / geo, 1e-13);
}

TEST(Gth, SatisfiesGlobalBalance) {
  // Random irreducible generator: verify pi Q = 0 and pi e = 1.
  gs::util::Rng rng(777);
  const std::size_t n = 8;
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      q(i, j) = 0.05 + rng.uniform();  // strictly positive => irreducible
      off += q(i, j);
    }
    q(i, i) = -off;
  }
  const Vector pi = gth_stationary(q);
  EXPECT_NEAR(gs::linalg::sum(pi), 1.0, 1e-13);
  const Vector flow = pi * q;
  EXPECT_LT(gs::linalg::norm_inf(flow), 1e-12);
}

TEST(Gth, ReducibleChainThrows) {
  // Two disconnected 1-cycles.
  Matrix q{{-1.0, 1.0, 0.0, 0.0},
           {1.0, -1.0, 0.0, 0.0},
           {0.0, 0.0, -2.0, 2.0},
           {0.0, 0.0, 2.0, -2.0}};
  EXPECT_THROW(gth_stationary(q), gs::NumericalError);
}

TEST(Gth, DtmcStationary) {
  // Two-state DTMC: P(0->1)=0.3, P(1->0)=0.6: pi = (2/3, 1/3).
  Matrix p{{0.7, 0.3}, {0.6, 0.4}};
  const Vector pi = gth_stationary_dtmc(p);
  EXPECT_NEAR(pi[0], 2.0 / 3.0, 1e-14);
  EXPECT_NEAR(pi[1], 1.0 / 3.0, 1e-14);
}

// X = B (-S)^{-1} for a random dense sub-generator: the residual of
// X (-S) = B is at round-off, and the answer matches a partial-pivot LU
// on this well-conditioned block. The diagonal handed in is not read.
TEST(GthFactor, RightDivisionMatchesLu) {
  gs::util::Rng rng(4242);
  const std::size_t n = 9;
  Matrix s(n, n);
  Vector exit(n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || rng.uniform() < 0.4) continue;
      off += (s(i, j) = rng.uniform());
    }
    exit[i] = 0.1 + rng.uniform();
    s(i, i) = -(off + exit[i]);
  }
  Matrix b(4, n);
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t j = 0; j < n; ++j) b(r, j) = rng.uniform();

  GthFactor f;
  f.factor(s, exit);
  ASSERT_EQ(f.size(), n);
  Matrix x;
  f.solve_right_into(b, x);
  Matrix neg = s;
  neg *= -1.0;
  Matrix resid = x * neg;
  resid -= b;
  EXPECT_LT(resid.max_abs(), 1e-13);

  Matrix ref;
  gs::linalg::Lu(neg).solve_right_into(b, ref);
  ref -= x;
  EXPECT_LT(ref.max_abs(), 1e-13 * x.max_abs());

  Matrix garbage = s;
  for (std::size_t i = 0; i < n; ++i) garbage(i, i) = 12345.0;
  GthFactor g;
  g.factor(garbage, exit);
  Matrix y;
  g.solve_right_into(b, y);
  y -= x;
  EXPECT_EQ(y.max_abs(), 0.0);
}

// Two states swapping at rate 1 with a tiny exit eps from the second:
// -S = [[1, -1], [-1, 1 + eps]], so e_1 (-S)^{-1} = ((1 + eps)/eps, 1/eps).
// The Schur pivot is eps itself; an LU forming it as (1 + eps) - 1 keeps
// only a few digits, GthFactor takes it from the exit rate exactly.
TEST(GthFactor, NearlyClosedBlockKeepsRelativeAccuracy) {
  const double eps = 1e-12;
  const Matrix s{{-1.0, 1.0}, {1.0, -(1.0 + eps)}};
  GthFactor f;
  f.factor(s, Vector{0.0, eps});
  Matrix x;
  f.solve_right_into(Matrix{{1.0, 0.0}}, x);
  EXPECT_NEAR(x(0, 0), (1.0 + eps) / eps, 1e-15 * (1.0 + eps) / eps);
  EXPECT_NEAR(x(0, 1), 1.0 / eps, 1e-15 / eps);
}

TEST(GthFactor, BlockWithoutExitThrows) {
  const Matrix s{{-1.0, 1.0}, {1.0, -1.0}};
  GthFactor f;
  EXPECT_THROW(f.factor(s, Vector{0.0, 0.0}), gs::NumericalError);
}

}  // namespace
