// The QBD layer runs dense products only. The CSR kernels stay in
// linalg, where block_tridiag and uniformization pick them by input
// density on the promise that they reproduce the dense kernels' bits
// (linalg/sparse.hpp), so a solver may switch representations and stay
// bitwise identical. These tests hold that promise on the QBD chains'
// own blocks, for every product a CSR branch of the solver could take:
// A0 G of the R-from-G stage, R A1 and (R R) A2 of the residual, R A2 of
// the boundary's level-b block, and the boundary vectors times the
// up/down blocks of the level reduction. The chains are the reference
// queues and the class chains at the gang fixed point of the paper's
// Figure 2-5 systems.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "linalg/sparse.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "workload/paper_configs.hpp"

namespace {

using namespace gs::qbd;
using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Matrix;
using gs::linalg::SparseMatrix;
using gs::linalg::Vector;
namespace qt = gs::qbd::testing;

// Every bit equal (memcmp, so signed zeros count).
bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bits(a.data(), b.data(), a.rows() * a.cols());
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

// dense * csr(b) == dense * b, bit for bit.
void expect_right_csr_matches(const Matrix& a, const Matrix& b,
                              const char* what) {
  Matrix dense, sparse;
  gs::linalg::multiply_into(dense, a, b);
  gs::linalg::multiply_into(sparse, a, SparseMatrix::from_dense(b));
  EXPECT_TRUE(same_bits(sparse, dense)) << what;
}

// x * csr(a) == x * a, bit for bit.
void expect_left_csr_matches(const Vector& x, const Matrix& a,
                             const std::string& what) {
  Vector sparse;
  gs::linalg::multiply_left_into(sparse, x, SparseMatrix::from_dense(a));
  EXPECT_TRUE(same_bits(sparse, x * a)) << what;
}

void check_process(const QbdProcess& proc) {
  const QbdBlocks& blk = proc.blocks();
  Workspace ws;
  const RSolveResult rs = solve_r_logreduction(blk.a0, blk.a1, blk.a2, {}, &ws);

  // A0 G, with A0 compressed on the left.
  Matrix dense, sparse;
  gs::linalg::multiply_into(dense, blk.a0, rs.g);
  gs::linalg::multiply_into(sparse, SparseMatrix::from_dense(blk.a0), rs.g);
  EXPECT_TRUE(same_bits(sparse, dense)) << "A0 G";

  // The residual A0 + R A1 + (R R) A2 with A1 and A2 compressed, summed in
  // r_residual's order, against the sum r_residual leaves in ws.res_acc.
  const double residual = r_residual(rs.r, blk.a0, blk.a1, blk.a2, ws);
  EXPECT_EQ(residual, rs.residual);
  Matrix ra1, rr, rra2;
  gs::linalg::multiply_into(ra1, rs.r, SparseMatrix::from_dense(blk.a1));
  gs::linalg::multiply_into(rr, rs.r, rs.r);
  gs::linalg::multiply_into(rra2, rr, SparseMatrix::from_dense(blk.a2));
  Matrix acc = blk.a0;
  acc += ra1;
  acc += rra2;
  EXPECT_TRUE(same_bits(acc, ws.res_acc)) << "residual";
  EXPECT_EQ(acc.max_abs(), residual);

  expect_right_csr_matches(rs.r, blk.a2, "R A2");

  // pi_i U_i and pi_{i+1} L_i over the boundary levels.
  const QbdSolution sol = solve(proc);
  ASSERT_EQ(sol.boundary_levels(), proc.boundary_levels() + 1);
  for (std::size_t i = 0; i < proc.boundary_levels(); ++i) {
    expect_left_csr_matches(sol.boundary_level(i), blk.up[i],
                            "pi U at level " + std::to_string(i));
    expect_left_csr_matches(sol.boundary_level(i + 1), blk.down[i],
                            "pi L at level " + std::to_string(i));
  }
}

// Each class chain as the gang solve leaves it: against the away period
// its fixed point's slices give.
void check_system(const SystemParams& sys) {
  const gs::gang::SolveReport rep = gs::gang::GangSolver(sys).solve();
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    const ClassProcess cp(sys, p,
                          gs::gang::away_period(sys, p, rep.final_slices));
    EXPECT_GT(cp.process().boundary_levels(), 0u);
    check_process(cp.process());
  }
}

TEST(SparseEquivalence, Mm1) { check_process(qt::mm1(0.6, 1.0)); }

TEST(SparseEquivalence, Mmc) { check_process(qt::mmc(2.1, 1.0, 3)); }

TEST(SparseEquivalence, Me21) { check_process(qt::me21(0.7, 1.0)); }

TEST(GangSparseEquivalence, Figure2LightLoad) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  check_system(gs::workload::paper_system(knobs));
}

TEST(GangSparseEquivalence, Figure3HeavyLoad) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.9;
  check_system(gs::workload::paper_system(knobs));
}

TEST(GangSparseEquivalence, Figure4UniformService) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.5;
  knobs.uniform_service_rate = 2.0;
  check_system(gs::workload::paper_system(knobs));
}

TEST(GangSparseEquivalence, Figure5FavoredClass) {
  check_system(gs::workload::figure5_system(/*favored=*/1, /*fraction=*/0.4));
}

}  // namespace
