// Anchors the full QBD solve against M/M/1 closed forms: pi_n = (1-rho)
// rho^n, E[N] = rho/(1-rho), Var[N] = rho/(1-rho)^2.
#include <gtest/gtest.h>

#include <cmath>

#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "substitution_oracle.hpp"
#include "util/error.hpp"

namespace {

using gs::qbd::QbdSolution;
namespace qt = gs::qbd::testing;

class Mm1Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Mm1Sweep, GeometricStationaryDistribution) {
  const double rho = GetParam();
  const QbdSolution sol = gs::qbd::solve(qt::mm1(rho, 1.0));
  for (std::size_t n = 0; n <= 12; ++n) {
    EXPECT_NEAR(sol.level_mass(n), (1.0 - rho) * std::pow(rho, double(n)),
                1e-10)
        << "level " << n;
  }
}

TEST_P(Mm1Sweep, MeanAndSecondMomentClosedForm) {
  const double rho = GetParam();
  const QbdSolution sol = gs::qbd::solve(qt::mm1(rho, 1.0));
  EXPECT_NEAR(sol.mean_level(), rho / (1.0 - rho), 1e-9);
  // E[N^2] for geometric(1-rho) on {0,1,...}: rho(1+rho)/(1-rho)^2.
  EXPECT_NEAR(sol.second_moment_level(),
              rho * (1.0 + rho) / ((1.0 - rho) * (1.0 - rho)), 1e-8);
}

TEST_P(Mm1Sweep, TotalMassIsOne) {
  const QbdSolution sol = gs::qbd::solve(qt::mm1(GetParam(), 1.0));
  EXPECT_NEAR(sol.total_mass(), 1.0, 1e-12);
}

TEST_P(Mm1Sweep, TailMassGeometric) {
  const double rho = GetParam();
  const QbdSolution sol = gs::qbd::solve(qt::mm1(rho, 1.0));
  // P(N >= k) = rho^k; tail from repeating level b + k with b = 0.
  for (std::size_t k : {0u, 1u, 3u, 6u})
    EXPECT_NEAR(sol.tail_mass_from(k), std::pow(rho, double(k)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, Mm1Sweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9, 0.98));

TEST(SolverMm1, SubstitutionOracleAgreesWithSolve) {
  // solve() runs Newton's method; the substitution oracle's R, finished
  // through the same boundary stage, must give the same measures.
  const auto proc = qt::mm1(0.8, 1.0);
  const auto& blk = proc.blocks();
  const auto a = gs::qbd::solve(proc);
  const auto ss = qt::substitution(blk.a0, blk.a1, blk.a2);
  const auto b = gs::qbd::solve_with_r(proc, ss.r);
  EXPECT_NEAR(a.mean_level(), b.mean_level(), 1e-8);
  EXPECT_NEAR(a.spectral_radius_r(), b.spectral_radius_r(), 1e-10);
}

TEST(SolverMm1, UnstableThrows) {
  EXPECT_THROW(gs::qbd::solve(qt::mm1(1.5, 1.0)), gs::NumericalError);
  EXPECT_THROW(gs::qbd::solve(qt::mm1(1.0, 1.0)), gs::NumericalError);
}

TEST(SolverMm1, SpectralRadiusEqualsRho) {
  const auto sol = gs::qbd::solve(qt::mm1(0.65, 1.0));
  EXPECT_NEAR(sol.spectral_radius_r(), 0.65, 1e-10);
}

}  // namespace
