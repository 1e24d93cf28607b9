// The tiled-GEMM toggle must be invisible in the numbers, exactly like
// the sparse toggle: with and without RSolveOptions::tiled the
// log-reduction solver (scalar and batched, at several widths) must
// produce bitwise-identical results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qbd/batch.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "util/error.hpp"

namespace {

using namespace gs::qbd;
using gs::linalg::LaneMask;
using gs::linalg::Matrix;
using gs::linalg::max_abs_diff;

void expect_r_identical(const RSolveResult& a, const RSolveResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_EQ(max_abs_diff(a.r, b.r), 0.0);
  if (a.g.rows() > 0 || b.g.rows() > 0)
    EXPECT_EQ(max_abs_diff(a.g, b.g), 0.0);
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

// A d-phase positive-recurrent family (same generator family as the
// batch R-solver tests) so the batched paths see d > 2 tiles with edges.
QbdBlocks make_blocks(std::size_t d, double lambda, double mu) {
  QbdBlocks b;
  b.a0.assign_zero(d, d);
  b.a1.assign_zero(d, d);
  b.a2.assign_zero(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    b.a0(i, i) = lambda;
    b.a2(i, i) = mu;
    b.a1(i, i) = -(lambda + mu) - (i + 1 < d ? 1.0 : 0.0);
    if (i + 1 < d) b.a1(i, i + 1) = 1.0;
  }
  return b;
}

TEST(TiledEquivalence, BatchedWidths) {
  const std::size_t d = 11;  // not a multiple of either tile dimension
  for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    BatchBlocks blocks;
    blocks.ensure(d, width);
    std::vector<QbdBlocks> lanes;
    for (std::size_t l = 0; l < width; ++l) {
      lanes.push_back(
          make_blocks(d, 0.2 + 0.1 * static_cast<double>(l), 1.1));
      blocks.load_lane(l, lanes[l]);
    }

    RSolveOptions tiled_on;
    tiled_on.tiled = true;
    RSolveOptions tiled_off;
    tiled_off.tiled = false;

    BatchWorkspace w_on, w_off;
    BatchRSolveResult r_on, r_off;
    solve_r_logreduction_batch(blocks, LaneMask(width), tiled_on, w_on, r_on);
    solve_r_logreduction_batch(blocks, LaneMask(width), tiled_off, w_off,
                               r_off);

    Matrix got_on, got_off;
    for (std::size_t l = 0; l < width; ++l) {
      SCOPED_TRACE("lane " + std::to_string(l));
      ASSERT_TRUE(r_on.ok(l)) << r_on.error[l];
      ASSERT_TRUE(r_off.ok(l)) << r_off.error[l];
      EXPECT_EQ(r_on.iterations[l], r_off.iterations[l]);
      EXPECT_EQ(r_on.residual[l], r_off.residual[l]);
      r_on.r.store_lane(l, got_on);
      r_off.r.store_lane(l, got_off);
      EXPECT_EQ(max_abs_diff(got_on, got_off), 0.0);

      // Both agree with the scalar solver on this lane's blocks, bit for
      // bit (the scalar default is tiled; the chain closes the loop).
      const RSolveResult scalar = solve_r_logreduction(
          lanes[l].a0, lanes[l].a1, lanes[l].a2, tiled_on);
      EXPECT_EQ(max_abs_diff(got_on, scalar.r), 0.0);
      EXPECT_EQ(r_on.iterations[l], scalar.iterations);
      EXPECT_EQ(r_on.residual[l], scalar.residual);
    }
  }
}

}  // namespace
