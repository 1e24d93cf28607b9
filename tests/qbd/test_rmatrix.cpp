#include "qbd/rmatrix.hpp"

#include <gtest/gtest.h>

#include "linalg/spectral.hpp"
#include "qbd_test_util.hpp"
#include "substitution_oracle.hpp"
#include "util/error.hpp"

namespace {

using gs::linalg::Matrix;
using gs::qbd::r_residual;
using gs::qbd::solve_r_logreduction;
namespace qt = gs::qbd::testing;

TEST(RMatrix, Mm1ScalarRIsRho) {
  const auto proc = qt::mm1(0.4, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  EXPECT_NEAR(lr.r(0, 0), 0.4, 1e-12);
  const auto ss = qt::substitution(blk.a0, blk.a1, blk.a2);
  EXPECT_NEAR(ss.r(0, 0), 0.4, 1e-10);
}

TEST(RMatrix, Mm1GMatrixIsStochastic) {
  // Recurrent chain: G row sums are 1 (certain first passage down).
  const auto proc = qt::mm1(0.7, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  EXPECT_NEAR(lr.g(0, 0), 1.0, 1e-12);
}

TEST(RMatrix, MethodsAgreeOnPhaseStructuredChain) {
  const auto proc = qt::me21(0.6, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  const auto ss = qt::substitution(blk.a0, blk.a1, blk.a2);
  EXPECT_LT(gs::linalg::max_abs_diff(lr.r, ss.r), 1e-9);
  EXPECT_LT(lr.residual, 1e-10);
  EXPECT_LT(ss.residual, 1e-10);
}

TEST(RMatrix, LogReductionConvergesMuchFaster) {
  const auto proc = qt::me21(0.9, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  const auto ss = qt::substitution(blk.a0, blk.a1, blk.a2);
  EXPECT_LT(lr.iterations, 64);
  EXPECT_GT(ss.iterations, lr.iterations);
}

TEST(RMatrix, ResidualDefinitionMatches) {
  const auto proc = qt::me21(0.5, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  EXPECT_NEAR(r_residual(lr.r, blk.a0, blk.a1, blk.a2), lr.residual, 1e-15);
  // The zero matrix is not a solution.
  EXPECT_GT(r_residual(Matrix(2, 2), blk.a0, blk.a1, blk.a2), 0.1);
}

TEST(RMatrix, ResidualWorkspaceFormMatches) {
  // The workspace form must not depend on scratch a solve of another
  // shape left behind.
  const auto proc = qt::me21(0.5, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  const auto other = qt::mmc(2.1, 1.0, 3);
  gs::qbd::Workspace ws;
  solve_r_logreduction(other.blocks().a0, other.blocks().a1,
                       other.blocks().a2, {}, &ws);
  EXPECT_EQ(r_residual(lr.r, blk.a0, blk.a1, blk.a2, ws),
            r_residual(lr.r, blk.a0, blk.a1, blk.a2));
}

TEST(RMatrix, SpectralRadiusTracksLoad) {
  double prev = 0.0;
  for (double rho : {0.2, 0.5, 0.8, 0.95}) {
    const auto proc = qt::me21(rho, 1.0);
    const auto& blk = proc.blocks();
    const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
    const double sp = gs::linalg::spectral_radius(lr.r).radius;
    EXPECT_GT(sp, prev);
    EXPECT_LT(sp, 1.0);
    prev = sp;
  }
}

TEST(RMatrix, RIsEntrywiseNonNegative) {
  const auto proc = qt::me21(0.7, 1.0);
  const auto& blk = proc.blocks();
  const auto lr = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_GE(lr.r(i, j), -1e-14);
}

TEST(RMatrix, BlockSizeMismatchThrows) {
  EXPECT_THROW(
      solve_r_logreduction(Matrix(1, 1), Matrix{{-1.0, 0.0}, {0.0, -1.0}},
                           Matrix(2, 2)),
      gs::InvalidArgument);
}

TEST(RMatrix, SubstitutionReportsExhaustedIterations) {
  // A stable chain whose substitution iteration cannot finish in the
  // budget: exhaustion itself must be reported (not just a bad residual),
  // with the iteration count and step size in the message.
  const auto proc = qt::me21(0.9, 1.0);
  const auto& blk = proc.blocks();
  gs::qbd::RSolveOptions opts;
  opts.max_iter = 3;
  try {
    qt::substitution(blk.a0, blk.a1, blk.a2, opts);
    FAIL() << "expected NumericalError on max_iter exhaustion";
  } catch (const gs::NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_iter=3"), std::string::npos) << what;
    EXPECT_NE(what.find("residual"), std::string::npos) << what;
  }
}

TEST(RMatrix, LogReductionReportsExhaustedIterations) {
  // Same contract for logarithmic reduction: an exhausted budget must
  // throw rather than hand back a half-converged R.
  const auto proc = qt::me21(0.9, 1.0);
  const auto& blk = proc.blocks();
  gs::qbd::RSolveOptions opts;
  opts.max_iter = 1;
  try {
    solve_r_logreduction(blk.a0, blk.a1, blk.a2, opts);
    FAIL() << "expected NumericalError on max_iter exhaustion";
  } catch (const gs::NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_iter=1"), std::string::npos) << what;
  }
}

TEST(RMatrix, WorkspaceReuseGivesIdenticalResults) {
  // A Workspace carried across solves of different chains must never
  // change any bit of the answers.
  gs::qbd::Workspace ws;
  for (double rho : {0.3, 0.6, 0.9}) {
    const auto proc = qt::me21(rho, 1.0);
    const auto& blk = proc.blocks();
    const auto fresh = solve_r_logreduction(blk.a0, blk.a1, blk.a2);
    const auto reused =
        solve_r_logreduction(blk.a0, blk.a1, blk.a2, {}, &ws);
    EXPECT_EQ(fresh.iterations, reused.iterations);
    EXPECT_EQ(gs::linalg::max_abs_diff(fresh.r, reused.r), 0.0);
    EXPECT_EQ(gs::linalg::max_abs_diff(fresh.g, reused.g), 0.0);
  }
}

}  // namespace
