// Warm-start chaining at the sweep level (SweepOptions::warm_chain):
// the chained sweep must land on the same fixed points as the cold sweep
// (within solver tolerance — the starting iterate differs, the answer
// does not), spend fewer total iterations doing so, stay bitwise
// identical across thread counts (the plan depends only on the point
// count and stride), and reproduce the cold sweep's error rows across
// stability boundaries.
#include "workload/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/paper_configs.hpp"

namespace {

using namespace gs::workload;

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(n - 1));
  return xs;
}

std::int64_t total_iterations(const std::vector<SweepPoint>& rows) {
  std::int64_t total = 0;
  for (const auto& row : rows) total += row.iterations;
  return total;
}

// Same fixed point, different path: values within a small multiple of
// the solver tolerance, error strings exactly equal.
void expect_same_rows(const std::vector<SweepPoint>& cold,
                      const std::vector<SweepPoint>& chained, double tol) {
  ASSERT_EQ(cold.size(), chained.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(cold[i].x, chained[i].x);
    EXPECT_EQ(cold[i].error, chained[i].error);
    ASSERT_EQ(cold[i].model_n.size(), chained[i].model_n.size());
    for (std::size_t p = 0; p < cold[i].model_n.size(); ++p)
      EXPECT_NEAR(cold[i].model_n[p], chained[i].model_n[p], 10.0 * tol);
  }
}

void expect_identical(const std::vector<SweepPoint>& a,
                      const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_EQ(a[i].warm_started, b[i].warm_started);
    EXPECT_EQ(a[i].error, b[i].error);
    ASSERT_EQ(a[i].model_n.size(), b[i].model_n.size());
    for (std::size_t p = 0; p < a[i].model_n.size(); ++p)
      EXPECT_EQ(a[i].model_n[p], b[i].model_n[p]);
  }
}

TEST(SweepWarmChain, MatchesColdOnFigure2AndSavesIterations) {
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  const auto xs = linspace(0.25, 2.0, 12);

  SweepOptions cold;
  SweepOptions chained;
  chained.warm_chain = true;
  chained.chain_stride = 4;

  const auto c = sweep(xs, make, cold);
  const auto w = sweep(xs, make, chained);
  expect_same_rows(c, w, cold.solver.tol);
  EXPECT_LT(total_iterations(w), total_iterations(c));

  // Anchors are cold by construction; at least one fill warm-started.
  ASSERT_EQ(w.size(), xs.size());
  EXPECT_FALSE(w[0].warm_started);
  EXPECT_FALSE(w[4].warm_started);
  EXPECT_FALSE(w[8].warm_started);
  bool any_warm = false;
  for (const auto& row : w) any_warm = any_warm || row.warm_started;
  EXPECT_TRUE(any_warm);
}

TEST(SweepWarmChain, MatchesColdOnFigure5System) {
  // Figure 5 varies the favored class's share of the quantum budget —
  // a different parameterization than the quantum sweeps, heavier load.
  const auto make = [](double fraction) {
    return figure5_system(/*favored=*/0, fraction);
  };
  const auto xs = linspace(0.2, 0.7, 9);

  SweepOptions cold;
  SweepOptions chained;
  chained.warm_chain = true;
  chained.chain_stride = 3;

  const auto c = sweep(xs, make, cold);
  const auto w = sweep(xs, make, chained);
  expect_same_rows(c, w, cold.solver.tol);
  EXPECT_LT(total_iterations(w), total_iterations(c));
}

TEST(SweepWarmChain, BitwiseIdenticalAcrossThreadCounts) {
  // The chaining plan is a pure function of (xs.size(), chain_stride),
  // so the chained sweep keeps the layer's core guarantee: thread count
  // changes speed, never bits.
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  const auto xs = linspace(0.25, 2.0, 10);

  SweepOptions one;
  one.warm_chain = true;
  one.chain_stride = 4;
  SweepOptions four = one;
  four.num_threads = 4;
  SweepOptions eight = one;
  eight.num_threads = 8;

  const auto a = sweep(xs, make, one);
  expect_identical(a, sweep(xs, make, four));
  expect_identical(a, sweep(xs, make, eight));
}

TEST(SweepWarmChain, ErrorRowsMatchColdAcrossStabilityBoundary) {
  // The sweep crosses into instability; chained error capture must
  // record the same rows as cold (a failed anchor's fills solve cold,
  // a warm fill that destabilizes falls back cold).
  const auto make = [](double rate) {
    PaperKnobs knobs;
    knobs.arrival_rate = rate;
    return paper_system(knobs);
  };
  const auto xs = linspace(0.3, 1.6, 8);

  SweepOptions cold;
  SweepOptions chained;
  chained.warm_chain = true;
  chained.chain_stride = 3;

  const auto c = sweep(xs, make, cold);
  const auto w = sweep(xs, make, chained);
  ASSERT_EQ(c.size(), w.size());
  bool any_error = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i].error, w[i].error) << "point " << i;
    any_error = any_error || !c[i].error.empty();
  }
  EXPECT_TRUE(any_error);  // the sweep really crossed the boundary
  expect_same_rows(c, w, cold.solver.tol);
}

TEST(SweepWarmChain, TwoPointSweepsNeverChain) {
  // Nothing to amortize below three points — the guard also keeps the
  // gangd smoke golden byte-stable (its sweep request has two values).
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  const std::vector<double> xs = {0.5, 1.0};

  SweepOptions chained;
  chained.warm_chain = true;
  const auto w = sweep(xs, make, chained);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_FALSE(w[0].warm_started);
  EXPECT_FALSE(w[1].warm_started);

  SweepOptions cold;
  const auto c = sweep(xs, make, cold);
  expect_identical(c, w);
}

TEST(SweepWarmChain, StrideOneMakesEveryPointAColdAnchor) {
  // chain_stride = 1 puts an anchor on every point, so the chained sweep
  // is the cold sweep: no point warm-starts and every row matches bit for
  // bit.
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  const auto xs = linspace(0.5, 2.0, 5);

  SweepOptions chained;
  chained.warm_chain = true;
  chained.chain_stride = 1;
  const auto w = sweep(xs, make, chained);
  for (const SweepPoint& pt : w) EXPECT_FALSE(pt.warm_started) << pt.x;

  const auto c = sweep(xs, make, SweepOptions{});
  expect_identical(c, w);
}

}  // namespace
