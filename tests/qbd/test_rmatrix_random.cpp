// Randomized cross-check of the one R algorithm the solver runs. Per-class
// chains of random gang-scheduled systems (gang::ClassProcess against the
// Theorem 4.1 heavy-traffic away period) must give the same R from
// Newton's method and from successive substitution, the trivially
// correct oracle, with both satisfying the defining equation
// A0 + R A1 + R^2 A2 = 0. The draws cover phase-type orders 1-4 for
// arrival, service and quantum, partition sizes that are not powers of
// two, up to four classes, and loads up to a few percent inside the
// Theorem 4.4 drift boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qbd/rmatrix.hpp"
#include "random_systems.hpp"
#include "substitution_oracle.hpp"

namespace {

using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::qbd::testing::Draw;
using gs::qbd::testing::repeating_dim;
namespace qt = gs::qbd::testing;

// Substitution is linear and each of its iterations is O(d^3), so chains
// above this repeating dimension are skipped (never built) to keep the
// test fast.
constexpr std::size_t kMaxDim = 60;
constexpr int kChains = 40;

TEST(RMatrixRandomized, LogReductionMatchesSubstitutionOracle) {
  gs::util::Rng rng(20260917);
  int chains = 0;
  int non_power_of_two = 0;
  int four_classes = 0;
  int order4 = 0;
  int heavy = 0;
  while (chains < kChains) {
    const Draw draw = qt::random_system(rng, {{3, 6}, 64, kMaxDim});
    const SystemParams& sys = draw.system;
    for (std::size_t p = 0; p < sys.num_classes() && chains < kChains; ++p) {
      if (draw.load[p] == 0.0) continue;
      const ClassProcess cp(sys, p,
                            gs::gang::away_period_heavy_traffic(sys, p));
      const auto& blk = cp.process().blocks();
      ASSERT_EQ(blk.a1.rows(), repeating_dim(sys, p));
      const auto& c = sys.cls(p);
      SCOPED_TRACE("chain " + std::to_string(chains) + ": P=" +
                   std::to_string(sys.processors()) + " L=" +
                   std::to_string(sys.num_classes()) + " p=" +
                   std::to_string(p) + " g=" +
                   std::to_string(c.partition_size) + " orders " +
                   std::to_string(c.arrival.order()) + "/" +
                   std::to_string(c.service.order()) + "/" +
                   std::to_string(c.quantum.order()) + " d=" +
                   std::to_string(blk.a1.rows()) + " load " +
                   std::to_string(draw.load[p]));

      const auto drift = cp.process().drift();
      ASSERT_TRUE(drift.stable);
      EXPECT_NEAR(drift.up_drift / drift.down_drift, draw.load[p], 1e-9);

      const auto lr = gs::qbd::solve_r(blk.a0, blk.a1, blk.a2);
      const auto ss = qt::substitution(blk.a0, blk.a1, blk.a2);
      EXPECT_LE(gs::linalg::max_abs_diff(lr.r, ss.r), 1e-9);
      EXPECT_LE(lr.residual, 1e-10);
      EXPECT_LE(ss.residual, 1e-10);

      ++chains;
      const std::size_t g = c.partition_size;
      if ((g & (g - 1)) != 0) ++non_power_of_two;
      if (sys.num_classes() == 4) ++four_classes;
      if (c.arrival.order() == 4 || c.service.order() == 4 ||
          c.quantum.order() == 4)
        ++order4;
      if (draw.load[p] > 0.9) ++heavy;
    }
  }
  // The seed must actually reach the corners the draw is meant to cover.
  EXPECT_GT(non_power_of_two, 0);
  EXPECT_GT(four_classes, 0);
  EXPECT_GT(order4, 0);
  EXPECT_GT(heavy, 0);
}

}  // namespace
