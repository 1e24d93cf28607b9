// Batched R-solver contract tests: lane-by-lane bitwise equality with the
// scalar solver (iterate counts and residuals included), independent
// lane retirement, mask independence, the scalar error text on failing
// lanes, and the qbd.batch.* observability counters.
#include "qbd/batch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "qbd/rmatrix.hpp"
#include "util/error.hpp"

namespace {

using gs::linalg::LaneMask;
using gs::linalg::Matrix;
using namespace gs::qbd;

// A d-phase M/M/1-like positive-recurrent chain (same generator family
// as the arena tests); lanes share the shape and vary the rates.
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

std::vector<QbdBlocks> lane_blocks(std::size_t d, std::size_t width) {
  std::vector<QbdBlocks> out;
  for (std::size_t l = 0; l < width; ++l) {
    // Utilizations fan out across the lanes so convergence speeds differ.
    const double lambda = 0.2 + 0.1 * static_cast<double>(l);
    out.push_back(make_blocks(d, lambda, 1.1));
  }
  return out;
}

BatchBlocks pack(const std::vector<QbdBlocks>& lanes) {
  BatchBlocks b;
  b.ensure(lanes[0].a1.rows(), lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) b.load_lane(l, lanes[l]);
  return b;
}

// Batched-vs-scalar on every lane. When the scalar solve throws for a
// lane, the batched lane must carry the identical message.
void check_lanes(const std::vector<QbdBlocks>& lanes,
                 const RSolveOptions& opts) {
  const std::size_t width = lanes.size();
  const BatchBlocks blocks = pack(lanes);
  BatchWorkspace w;
  BatchRSolveResult res;
  solve_r_logreduction_batch(blocks, LaneMask(width), opts, w, res);

  Matrix got;
  for (std::size_t l = 0; l < width; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    try {
      const RSolveResult want =
          solve_r_logreduction(lanes[l].a0, lanes[l].a1, lanes[l].a2, opts);
      ASSERT_TRUE(res.ok(l)) << res.error[l];
      res.r.store_lane(l, got);
      EXPECT_EQ(gs::linalg::max_abs_diff(got, want.r), 0.0);
      EXPECT_EQ(res.iterations[l], want.iterations);
      EXPECT_EQ(res.residual[l], want.residual);
    } catch (const gs::Error& e) {
      EXPECT_EQ(res.error[l], e.what());
    }
  }
}

TEST(BatchRSolve, LogreductionMatchesScalarPerLane) {
  check_lanes(lane_blocks(3, 8), {});
}

TEST(BatchRSolve, StageTimersCoverTheBatchLoop) {
  // The per-stage evidence the batch bench reports: pack/gemm/trsm/lu
  // all accumulate wall time over a tiled batched solve.
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  gs::obs::reset();
  const std::vector<QbdBlocks> lanes = lane_blocks(3, 4);
  const BatchBlocks blocks = pack(lanes);
  BatchWorkspace w;
  BatchRSolveResult res;
  solve_r_logreduction_batch(blocks, LaneMask(4), {}, w, res);
  const gs::obs::Snapshot snap = gs::obs::snapshot();
  for (const char* t :
       {"qbd.batch.pack", "qbd.batch.gemm", "qbd.batch.trsm",
        "qbd.batch.lu"}) {
    const auto* timer = snap.timer(t);
    ASSERT_NE(timer, nullptr) << t;
    EXPECT_GT(timer->count, 0u) << t;
  }
  gs::obs::configure({});
}

TEST(BatchRSolve, LanesRetireAtTheirOwnIteration) {
  // Light vs heavy load: the heavy lane needs more squarings, so the
  // light one retires first.
  std::vector<QbdBlocks> lanes = {make_blocks(2, 0.2, 1.1),
                                  make_blocks(2, 0.9, 1.1)};
  const BatchBlocks blocks = pack(lanes);
  BatchWorkspace w;
  BatchRSolveResult res;
  solve_r_logreduction_batch(blocks, LaneMask(2), {}, w, res);
  ASSERT_TRUE(res.ok(0));
  ASSERT_TRUE(res.ok(1));
  EXPECT_LT(res.iterations[0], res.iterations[1]);
}

TEST(BatchRSolve, ExhaustedLaneCarriesScalarErrorOthersFinish) {
  // A cap the light lane beats and the near-saturated lane cannot: the
  // light lane's own iteration count.
  std::vector<QbdBlocks> lanes = {make_blocks(2, 0.2, 1.1),
                                  make_blocks(2, 1.05, 1.1)};
  RSolveOptions opts;
  opts.max_iter =
      solve_r_logreduction(lanes[0].a0, lanes[0].a1, lanes[0].a2).iterations;
  const BatchBlocks blocks = pack(lanes);
  BatchWorkspace w;
  BatchRSolveResult res;
  solve_r_logreduction_batch(blocks, LaneMask(2), opts, w, res);
  EXPECT_TRUE(res.ok(0)) << res.error[0];
  ASSERT_FALSE(res.ok(1));
  std::string scalar_error;
  try {
    solve_r_logreduction(lanes[1].a0, lanes[1].a1, lanes[1].a2, opts);
    FAIL() << "scalar solve should exhaust its iteration cap";
  } catch (const gs::Error& e) {
    scalar_error = e.what();
  }
  EXPECT_EQ(res.error[1], scalar_error);
}

TEST(BatchRSolve, MaskSubsetsMatchFullMaskBitwise) {
  const std::vector<QbdBlocks> lanes = lane_blocks(3, 4);
  const BatchBlocks blocks = pack(lanes);
  BatchWorkspace w_full, w_sub;
  BatchRSolveResult full, sub;
  solve_r_logreduction_batch(blocks, LaneMask(4), {}, w_full, full);
  LaneMask mask(4, false);
  mask.set(0, true);
  mask.set(2, true);
  solve_r_logreduction_batch(blocks, mask, {}, w_sub, sub);
  Matrix a, b;
  for (const std::size_t l : {0u, 2u}) {
    ASSERT_TRUE(sub.ok(l));
    full.r.store_lane(l, a);
    sub.r.store_lane(l, b);
    EXPECT_EQ(gs::linalg::max_abs_diff(a, b), 0.0) << "lane " << l;
    EXPECT_EQ(full.iterations[l], sub.iterations[l]);
  }
}

TEST(BatchRSolve, PublishesBatchCounters) {
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  gs::obs::reset();
  const std::vector<QbdBlocks> lanes = lane_blocks(3, 4);
  const BatchBlocks blocks = pack(lanes);
  BatchWorkspace w;
  BatchRSolveResult res;
  solve_r_logreduction_batch(blocks, LaneMask(4), {}, w, res);
  const gs::obs::Snapshot snap = gs::obs::snapshot();
  EXPECT_EQ(snap.counter_value("qbd.batch.lanes"), 4u);
  // retired counts *early* retirements: every lane except the last one
  // still iterating (the four utilizations converge at distinct points).
  EXPECT_EQ(snap.counter_value("qbd.batch.retired"), 3u);
  EXPECT_GT(snap.counter_value("qbd.batch.masked_flops"), 0u);
  gs::obs::configure({});
}

}  // namespace
