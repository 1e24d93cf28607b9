// Phase-structured QBD anchors: M/E2/1 against Pollaczek–Khinchine, and a
// brute-force comparison of the matrix-geometric solution against GTH on a
// deeply truncated copy of the same chain.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "linalg/gth.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "util/error.hpp"

namespace {

using gs::linalg::Matrix;
using gs::linalg::Vector;
namespace qt = gs::qbd::testing;

// M/G/1 mean number in system (P-K): L = rho + rho^2 (1 + scv) / (2(1-rho)).
double pk_mean(double rho, double scv) {
  return rho + rho * rho * (1.0 + scv) / (2.0 * (1.0 - rho));
}

class Me21Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Me21Sweep, MeanMatchesPollaczekKhinchine) {
  const double rho = GetParam();
  const auto sol = gs::qbd::solve(qt::me21(rho, 1.0));
  EXPECT_NEAR(sol.mean_level(), pk_mean(rho, 0.5), 1e-8) << "rho=" << rho;
}

TEST_P(Me21Sweep, MatchesTruncatedChainSolvedByGth) {
  const double rho = GetParam();
  const auto p = qt::me21(rho, 1.0);
  const auto sol = gs::qbd::solve(p);

  // Truncate deep enough that the geometric tail is negligible, reflect
  // the top level (drop its up-rates onto the diagonal), and solve the
  // finite chain exactly.
  const std::size_t levels = 220;
  Matrix q = p.corner(levels);
  const std::size_t n = q.rows();
  const std::size_t d = p.repeating_size();
  for (std::size_t i = n - d; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += q(i, j);
    q(i, i) -= row;
  }
  const Vector pi = gs::linalg::gth_stationary(q);

  // Compare level masses.
  EXPECT_NEAR(pi[0], sol.level_mass(0), 1e-9);
  for (std::size_t lvl = 1; lvl <= 10; ++lvl) {
    const double mass = pi[1 + (lvl - 1) * d] + pi[1 + (lvl - 1) * d + 1];
    EXPECT_NEAR(mass, sol.level_mass(lvl), 1e-9) << "level " << lvl;
  }
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, Me21Sweep,
                         ::testing::Values(0.2, 0.5, 0.8));

TEST(SolverPhases, PhaseVectorsMatchTruncation) {
  const auto p = qt::me21(0.6, 1.0);
  const auto sol = gs::qbd::solve(p);
  // The level-3 phase split from the matrix-geometric form.
  const Vector lvl3 = sol.level(3);
  ASSERT_EQ(lvl3.size(), 2u);
  EXPECT_GT(lvl3[0], 0.0);
  EXPECT_GT(lvl3[1], 0.0);
  // Against truncated GTH.
  const std::size_t levels = 200;
  Matrix q = p.corner(levels);
  const std::size_t n = q.rows();
  for (std::size_t i = n - 2; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += q(i, j);
    q(i, i) -= row;
  }
  const Vector pi = gs::linalg::gth_stationary(q);
  EXPECT_NEAR(lvl3[0], pi[1 + 2 * 2], 1e-10);
  EXPECT_NEAR(lvl3[1], pi[1 + 2 * 2 + 1], 1e-10);
}

TEST(SolverPhases, RepeatingPhaseMassConsistent) {
  const auto sol = gs::qbd::solve(qt::me21(0.6, 1.0));
  const Vector agg = sol.repeating_phase_mass();
  // Summing levels 1..inf explicitly must agree.
  double direct0 = 0.0, direct1 = 0.0;
  for (std::size_t lvl = 1; lvl <= 400; ++lvl) {
    const Vector v = sol.level(lvl);
    direct0 += v[0];
    direct1 += v[1];
  }
  EXPECT_NEAR(agg[0], direct0, 1e-10);
  EXPECT_NEAR(agg[1], direct1, 1e-10);
}

TEST(SolverPhases, MeanLevelMatchesDirectSummation) {
  const auto sol = gs::qbd::solve(qt::me21(0.75, 1.0));
  double direct = 0.0;
  for (std::size_t lvl = 1; lvl <= 600; ++lvl)
    direct += static_cast<double>(lvl) * sol.level_mass(lvl);
  EXPECT_NEAR(sol.mean_level(), direct, 1e-8);
  double second = 0.0;
  for (std::size_t lvl = 1; lvl <= 600; ++lvl)
    second += static_cast<double>(lvl * lvl) * sol.level_mass(lvl);
  EXPECT_NEAR(sol.second_moment_level(), second, 1e-6);
}

TEST(SolverPhases, BadRGivesStructuredErrorNotAbort) {
  // Two service phases with switching (rates alpha, beta) behind a b = 0
  // boundary. R = diag(0, 0.9) passes the sp(R) < 1 admission but is no
  // rate matrix of this chain: it makes the level-0 block B11 + R A2
  // positive in its second diagonal entry, and the normalized boundary
  // vector comes out as (6, -0.5). The boundary stage must report that
  // as a NumericalError, which a daemon survives, instead of aborting.
  const double lambda = 0.5, mu = 2.0, alpha = 0.1, beta = 0.1;
  gs::qbd::QbdBlocks blk;
  blk.b11 = Matrix{{-(lambda + alpha), alpha}, {beta, -(lambda + beta)}};
  blk.a0 = lambda * Matrix::identity(2);
  blk.a1 = Matrix{{-(lambda + mu + alpha), alpha},
                  {beta, -(lambda + mu + beta)}};
  blk.a2 = mu * Matrix::identity(2);
  const gs::qbd::QbdProcess proc(std::move(blk));
  const Matrix bad_r{{0.0, 0.0}, {0.0, 0.9}};
  try {
    gs::qbd::solve_with_r(proc, bad_r);
    FAIL() << "expected gs::NumericalError";
  } catch (const gs::NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("boundary vector"),
              std::string::npos)
        << e.what();
  }
  // Non-finite R must not come back as an all-NaN solution either: a NaN
  // entry fails spectral_radius's input check, and an infinite one gives
  // sp(R) = NaN, which the admission rejects.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(gs::qbd::solve_with_r(proc, Matrix{{0.1, 0.0}, {0.0, nan}}),
               gs::InvalidArgument);
  EXPECT_THROW(gs::qbd::solve_with_r(proc, Matrix{{0.0, inf}, {0.0, 0.0}}),
               gs::NumericalError);
}

}  // namespace
