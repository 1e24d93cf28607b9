// The tiled-GEMM toggle must be invisible in the numbers, exactly like
// the sparse toggle: with and without RSolveOptions::tiled the
// log-reduction solver must produce bitwise-identical results.
#include <gtest/gtest.h>

#include <string>

#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "util/error.hpp"

namespace {

using namespace gs::qbd;
using gs::linalg::Matrix;
using gs::linalg::max_abs_diff;

void expect_r_identical(const RSolveResult& a, const RSolveResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_EQ(max_abs_diff(a.r, b.r), 0.0);
  if (a.g.rows() > 0 || b.g.rows() > 0) {
    EXPECT_EQ(max_abs_diff(a.g, b.g), 0.0);
  }
}

void expect_solutions_identical(const QbdSolution& a, const QbdSolution& b) {
  EXPECT_EQ(a.spectral_radius_r(), b.spectral_radius_r());
  EXPECT_EQ(max_abs_diff(a.r(), b.r()), 0.0);
  EXPECT_EQ(a.mean_level(), b.mean_level());
  EXPECT_EQ(a.second_moment_level(), b.second_moment_level());
}

void check_process(const QbdProcess& proc, const std::string& name) {
  SCOPED_TRACE(name);
  RSolveOptions tiled_on;
  tiled_on.tiled = true;
  RSolveOptions tiled_off;
  tiled_off.tiled = false;

  const Matrix& a0 = proc.blocks().a0;
  const Matrix& a1 = proc.blocks().a1;
  const Matrix& a2 = proc.blocks().a2;

  Workspace ws_on, ws_off;
  expect_r_identical(solve_r_logreduction(a0, a1, a2, tiled_on, &ws_on),
                     solve_r_logreduction(a0, a1, a2, tiled_off, &ws_off));

  SolveOptions on;
  on.r_options = tiled_on;
  SolveOptions off;
  off.r_options = tiled_off;
  expect_solutions_identical(solve(proc, on), solve(proc, off));
}

TEST(TiledEquivalence, Mm1) {
  check_process(gs::qbd::testing::mm1(0.6, 1.0), "mm1");
}

TEST(TiledEquivalence, Mmc) {
  check_process(gs::qbd::testing::mmc(2.1, 1.0, 3), "mmc");
}

TEST(TiledEquivalence, Me21) {
  check_process(gs::qbd::testing::me21(0.7, 1.0), "me21");
}

}  // namespace
