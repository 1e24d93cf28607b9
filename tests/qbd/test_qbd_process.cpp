#include "qbd/qbd.hpp"

#include <gtest/gtest.h>

#include "qbd_test_util.hpp"
#include "util/error.hpp"

namespace {

using gs::linalg::Matrix;
using gs::qbd::QbdBlocks;
using gs::qbd::QbdProcess;
namespace qt = gs::qbd::testing;

TEST(QbdProcess, Mm1DriftMatchesUtilization) {
  const auto drift = qt::mm1(0.6, 1.0).drift();
  EXPECT_NEAR(drift.up_drift, 0.6, 1e-12);
  EXPECT_NEAR(drift.down_drift, 1.0, 1e-12);
  EXPECT_TRUE(drift.stable);
}

TEST(QbdProcess, UnstableDriftDetected) {
  EXPECT_FALSE(qt::mm1(1.2, 1.0).drift().stable);
  // Critically loaded is also not positive recurrent.
  EXPECT_FALSE(qt::mm1(1.0, 1.0).drift().stable);
}

TEST(QbdProcess, Me21DriftUsesPhaseStationary) {
  // For M/E2/1 the phase process spends half its time in each stage; the
  // drift condition reduces to lambda < mu.
  const auto stable = qt::me21(0.5, 1.0).drift();
  EXPECT_TRUE(stable.stable);
  EXPECT_NEAR(stable.up_drift, 0.5, 1e-12);
  EXPECT_NEAR(stable.down_drift, 1.0, 1e-12);
  EXPECT_FALSE(qt::me21(1.1, 1.0).drift().stable);
}

TEST(QbdProcess, CornerAssemblesGeneratorShape) {
  const QbdProcess p = qt::mmc(0.5, 1.0, 3);
  const Matrix q = p.corner(2);
  // 3 boundary-interior + level 3 + two repeating levels = 6 states.
  ASSERT_EQ(q.rows(), 6u);
  // All rows except the top level must sum to zero.
  const auto rs = q.row_sums();
  for (std::size_t i = 0; i + 1 < q.rows(); ++i)
    EXPECT_NEAR(rs[i], 0.0, 1e-12) << "row " << i;
  // The top level is missing its up-rate.
  EXPECT_NEAR(rs[5], -0.5, 1e-12);
}

TEST(QbdProcess, IrreducibleExamples) {
  EXPECT_TRUE(qt::mm1(0.5, 1.0).is_irreducible());
  EXPECT_TRUE(qt::mmc(0.5, 1.0, 4).is_irreducible());
  EXPECT_TRUE(qt::me21(0.5, 1.0).is_irreducible());
}

TEST(QbdProcess, ReducibleChainDetected) {
  // Two parallel non-communicating phase lanes.
  QbdBlocks blk;
  blk.b11 = Matrix{{-1.0, 0.0}, {0.0, -1.0}};
  blk.a0 = Matrix::identity(2);
  blk.a1 = Matrix{{-3.0, 0.0}, {0.0, -3.0}};
  blk.a2 = 2.0 * Matrix::identity(2);
  const QbdProcess p(std::move(blk));
  EXPECT_FALSE(p.is_irreducible());
}

TEST(QbdProcess, ValidationRejectsBadRowSums) {
  QbdBlocks blk;
  blk.b11 = Matrix{{-1.0}};
  blk.a0 = Matrix{{1.0}};
  blk.a1 = Matrix{{-4.0}};  // should be -(1+2) = -3
  blk.a2 = Matrix{{2.0}};
  EXPECT_THROW(QbdProcess(std::move(blk)), gs::InvalidArgument);
}

TEST(QbdProcess, ValidationRejectsShapeMismatch) {
  QbdBlocks blk;
  // One boundary-interior level of two states whose up block does not
  // reach the one-state level b.
  blk.diag = {Matrix{{-1.0, 0.0}, {0.0, -1.0}}};
  blk.up = {Matrix(2, 2, 0.5)};
  blk.down = {Matrix(1, 2)};
  blk.b11 = Matrix{{-1.0}};
  blk.a0 = Matrix{{1.0}};
  blk.a1 = Matrix{{-3.0}};
  blk.a2 = Matrix{{2.0}};
  EXPECT_THROW(QbdProcess(std::move(blk)), gs::InvalidArgument);
}

TEST(QbdProcess, ValidationRejectsNegativeRate) {
  QbdBlocks blk;
  blk.b11 = Matrix{{-1.0}};
  blk.a0 = Matrix{{-1.0}};  // negative up-rate
  blk.a1 = Matrix{{-1.0}};
  blk.a2 = Matrix{{2.0}};
  EXPECT_THROW(QbdProcess(std::move(blk)), gs::InvalidArgument);
}

}  // namespace
