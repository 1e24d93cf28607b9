#include "phase/uniformization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "linalg/matrix.hpp"
#include "phase/builders.hpp"
#include "util/error.hpp"

namespace {

using gs::linalg::Matrix;
using gs::linalg::Vector;
using gs::phase::exp_action;
using gs::phase::exp_dense;

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(Uniformization, ScalarExponential) {
  // exp(-a t) for the 1x1 sub-generator [-a].
  const Matrix m{{-2.0}};
  for (double t : {0.0, 0.1, 1.0, 5.0}) {
    const Vector r = exp_action({1.0}, m, t);
    EXPECT_NEAR(r[0], std::exp(-2.0 * t), 1e-12) << "t=" << t;
  }
}

TEST(Uniformization, GeneratorPreservesProbabilityMass) {
  // A proper generator keeps row-vector mass at 1 for all t.
  const Matrix q{{-1.0, 1.0, 0.0},
                 {0.5, -1.5, 1.0},
                 {0.0, 2.0, -2.0}};
  const Vector pi0{0.2, 0.5, 0.3};
  for (double t : {0.01, 0.5, 2.0, 20.0}) {
    const Vector pit = exp_action(pi0, q, t);
    EXPECT_NEAR(gs::linalg::sum(pit), 1.0, 1e-10) << "t=" << t;
    for (double v : pit) EXPECT_GE(v, -1e-12);
  }
}

TEST(Uniformization, SemigroupProperty) {
  // exp(Q(s+t)) = exp(Qs) exp(Qt) applied to a vector.
  const Matrix q{{-3.0, 3.0}, {1.0, -1.0}};
  const Vector v{1.0, 0.0};
  const Vector direct = exp_action(v, q, 1.7);
  const Vector stepped = exp_action(exp_action(v, q, 0.9), q, 0.8);
  EXPECT_LT(gs::linalg::max_abs_diff(direct, stepped), 1e-10);

  // A block-bidiagonal sub-generator like the away-period chains of
  // Theorem 4.1: mostly zeros, with mass leaving every phase but the
  // first.
  const std::size_t n = 8;
  Matrix s(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    s(i, i) = -1.0 - 0.1 * static_cast<double>(i);
    if (i + 1 < n) s(i, i + 1) = 1.0 + 0.05 * static_cast<double>(i);
  }
  Vector w(n, 0.0);
  w[0] = 0.7;
  w[3] = 0.3;
  for (double t : {0.1, 1.0, 7.5}) {
    const Vector whole = exp_action(w, s, 2.0 * t);
    const Vector halves = exp_action(exp_action(w, s, t), s, t);
    EXPECT_LT(gs::linalg::max_abs_diff(whole, halves), 1e-12) << "t=" << t;
  }
}

TEST(Uniformization, MatchesTwoStateClosedForm) {
  // Two-state chain 0 <-> 1 with rates a, b: P(X(t)=0 | X(0)=0) =
  // b/(a+b) + a/(a+b) e^{-(a+b)t}.
  const double a = 2.0, b = 3.0;
  const Matrix q{{-a, a}, {b, -b}};
  for (double t : {0.1, 0.6, 2.5}) {
    const Vector r = exp_action({1.0, 0.0}, q, t);
    const double expected =
        b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
    EXPECT_NEAR(r[0], expected, 1e-12) << "t=" << t;
  }
}

TEST(Uniformization, LargeTimeReachesStationarity) {
  const double a = 2.0, b = 3.0;
  const Matrix q{{-a, a}, {b, -b}};
  const Vector r = exp_action({1.0, 0.0}, q, 200.0);
  EXPECT_NEAR(r[0], b / (a + b), 1e-9);
  EXPECT_NEAR(r[1], a / (a + b), 1e-9);
}

TEST(Uniformization, DenseMatchesActionPerRow) {
  const Matrix q{{-1.0, 1.0, 0.0},
                 {0.5, -1.5, 1.0},
                 {0.25, 0.25, -0.5}};
  const double t = 0.8;
  const Matrix e = exp_dense(q, t);
  for (std::size_t r = 0; r < 3; ++r) {
    Vector unit(3, 0.0);
    unit[r] = 1.0;
    const Vector row = exp_action(unit, q, t);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(e(r, c), row[c], 1e-12);
  }
}

TEST(Uniformization, ZeroMatrixIsIdentity) {
  const Matrix z(2, 2);
  const Vector r = exp_action({0.3, 0.7}, z, 5.0);
  EXPECT_DOUBLE_EQ(r[0], 0.3);
  EXPECT_DOUBLE_EQ(r[1], 0.7);
}

TEST(Uniformization, RejectsNegativeTime) {
  EXPECT_THROW(exp_action({1.0}, Matrix{{-1.0}}, -0.5), gs::InvalidArgument);
}

TEST(Uniformization, RejectsInfiniteTime) {
  const auto e = gs::phase::erlang(2, 1.0);
  EXPECT_THROW(e.cdf(std::numeric_limits<double>::infinity()),
               gs::InvalidArgument);
}

TEST(Uniformization, RejectsRateTimeAboveTheCap) {
  // Erlang-2 with mean 1 uniformizes at q = 2 (1 + 1e-12), so this t puts
  // q t just above kExpActionMaxQt; the message names q t.
  const auto e = gs::phase::erlang(2, 1.0);
  const double t = 0.5 * gs::phase::kExpActionMaxQt * (1.0 + 1e-9);
  try {
    e.cdf(t);
    FAIL() << "cdf(" << t << ") did not throw";
  } catch (const gs::InvalidArgument& err) {
    EXPECT_NE(std::string(err.what()).find("q*t = 1e+08 exceeds 1e+08"),
              std::string::npos)
        << err.what();
  }
}

TEST(Uniformization, ErlangTailBitsUnchangedBelowTheCap) {
  const auto e = gs::phase::erlang(2, 1.0);
  EXPECT_EQ(hex(e.cdf(50.0)), "0x1p+0");
  EXPECT_EQ(hex(e.sf(50.0)), "0x1.4f290867ade4cp-138");
  EXPECT_EQ(hex(e.cdf(3.0)), "0x1.f71dbc268752ep-1");
}

TEST(Uniformization, StiffLargeRateStillAccurate) {
  // Rates differing by 1e4: uniformization handles stiffness by brute
  // force; verify against the scalar closed form on the fast state.
  const Matrix m{{-1e4, 0.0}, {0.0, -1.0}};
  const Vector r = exp_action({0.5, 0.5}, m, 1.0);
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1], 0.5 * std::exp(-1.0), 1e-9);
}

}  // namespace
