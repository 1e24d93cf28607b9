// The sparse toggle must be invisible in the numbers: with and without
// RSolveOptions::sparse, both R solvers and the full boundary solve must
// produce bitwise-identical results (linalg/sparse.hpp documents why the
// CSR kernels preserve every bit; these tests pin the solvers to it).
#include <gtest/gtest.h>

#include <string>

#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"

namespace {

using namespace gs::qbd;
using gs::linalg::Matrix;
using gs::linalg::Vector;
using gs::linalg::max_abs_diff;

void expect_r_identical(const RSolveResult& s, const RSolveResult& d) {
  EXPECT_EQ(s.iterations, d.iterations);
  EXPECT_EQ(s.residual, d.residual);
  EXPECT_EQ(max_abs_diff(s.r, d.r), 0.0);
  if (s.g.rows() > 0 || d.g.rows() > 0) {
    EXPECT_EQ(max_abs_diff(s.g, d.g), 0.0);
  }
}

void expect_solutions_identical(const QbdSolution& s, const QbdSolution& d) {
  EXPECT_EQ(s.spectral_radius_r(), d.spectral_radius_r());
  EXPECT_EQ(max_abs_diff(s.r(), d.r()), 0.0);
  ASSERT_EQ(s.boundary_levels(), d.boundary_levels());
  for (std::size_t i = 0; i < s.boundary_levels(); ++i)
    EXPECT_EQ(max_abs_diff(s.boundary_level(i), d.boundary_level(i)), 0.0);
  EXPECT_EQ(s.mean_level(), d.mean_level());
  EXPECT_EQ(s.second_moment_level(), d.second_moment_level());
}

void check_process(const QbdProcess& proc, const std::string& name) {
  SCOPED_TRACE(name);
  RSolveOptions sparse_on;
  sparse_on.sparse = true;
  RSolveOptions sparse_off;
  sparse_off.sparse = false;

  const Matrix& a0 = proc.blocks().a0;
  const Matrix& a1 = proc.blocks().a1;
  const Matrix& a2 = proc.blocks().a2;

  Workspace ws_on, ws_off;
  expect_r_identical(solve_r_substitution(a0, a1, a2, sparse_on, &ws_on),
                     solve_r_substitution(a0, a1, a2, sparse_off, &ws_off));
  expect_r_identical(solve_r_logreduction(a0, a1, a2, sparse_on, &ws_on),
                     solve_r_logreduction(a0, a1, a2, sparse_off, &ws_off));

  SolveOptions on;
  on.r_options = sparse_on;
  SolveOptions off = on;
  off.r_options = sparse_off;
  expect_solutions_identical(solve(proc, on), solve(proc, off));
}

TEST(SparseEquivalence, Mm1) { check_process(gs::qbd::testing::mm1(0.6, 1.0), "mm1"); }

TEST(SparseEquivalence, Mmc) {
  check_process(gs::qbd::testing::mmc(2.1, 1.0, 3), "mmc");
}

TEST(SparseEquivalence, Me21) {
  check_process(gs::qbd::testing::me21(0.7, 1.0), "me21");
}

TEST(SparseEquivalence, ResidualWorkspaceFormMatches) {
  const QbdProcess proc = gs::qbd::testing::me21(0.5, 1.0);
  const Matrix& a0 = proc.blocks().a0;
  const Matrix& a1 = proc.blocks().a1;
  const Matrix& a2 = proc.blocks().a2;
  const RSolveResult sol = solve_r_logreduction(a0, a1, a2);

  const double plain = r_residual(sol.r, a0, a1, a2);
  Workspace ws;
  EXPECT_EQ(r_residual(sol.r, a0, a1, a2, ws, /*sparse=*/false), plain);
  ws.a1_csr.assign_from_dense(a1);
  ws.a2_csr.assign_from_dense(a2);
  EXPECT_EQ(r_residual(sol.r, a0, a1, a2, ws, /*sparse=*/true), plain);
}

}  // namespace
