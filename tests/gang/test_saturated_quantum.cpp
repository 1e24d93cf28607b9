// Tests of the saturated-class fallback: when a class operates so close to
// its stability boundary that the truncation cap cannot contain the
// geometric tail, the effective quantum degenerates to the full quantum
// instead of being computed from a hard-censored (biased-short) chain.
#include <gtest/gtest.h>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang_test_util.hpp"
#include "qbd/solver.hpp"
#include "util/error.hpp"

namespace {

using namespace gs::gang;
namespace gt = gs::gang::testing;

TEST(SaturatedQuantum, FallbackUsesFullQuantumMoments) {
  // rho = 0.985 on the whole-machine class: stable, but sp(R) is so close
  // to 1 that a small level cap saturates.
  const SystemParams sys = gt::single_class_whole_machine(0.985, 1.0, 2.0,
                                                          0.01);
  ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
  const auto sol = gs::qbd::solve(proc.process());

  TruncationOptions tight;
  tight.max_levels = 50;  // force the cap
  const EffectiveQuantum eq = proc.effective_quantum(sol, tight);
  const auto& full = sys.cls(0).quantum;
  EXPECT_NEAR(eq.m1, (1.0 - eq.atom) * full.moment(1), 1e-9);
  EXPECT_NEAR(eq.m2, (1.0 - eq.atom) * full.moment(2), 1e-9);
  // The slice-start atom must match the honestly-computed one (the flow
  // normalization aggregates the full geometric tail). Note it is LARGE
  // here despite rho = 0.985: with a single class the away period is just
  // the 0.01 overhead, so every idle stretch produces ~100 zero-length
  // slices per time unit — the model's cycling convention.
  TruncationOptions deep;
  deep.max_levels = 4000;
  const EffectiveQuantum honest = proc.effective_quantum(sol, deep);
  EXPECT_NEAR(eq.atom, honest.atom, 0.01);
}

TEST(SaturatedQuantum, FallbackAgreesWithDeepTruncation) {
  // Same operating point with a deep cap: the honestly-computed moments
  // are close to the fallback's (the class really does use ~its full
  // quantum), validating the substitution.
  const SystemParams sys = gt::single_class_whole_machine(0.97, 1.0, 2.0,
                                                          0.01);
  ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
  const auto sol = gs::qbd::solve(proc.process());

  TruncationOptions capped;
  capped.max_levels = 60;
  TruncationOptions deep;
  deep.max_levels = 4000;
  const EffectiveQuantum a = proc.effective_quantum(sol, capped);
  const EffectiveQuantum b = proc.effective_quantum(sol, deep);
  // The fallback replaces the busy part by the full quantum; at rho=0.97
  // a few busy slices still end early, so allow a several-percent gap.
  EXPECT_NEAR(a.m1, b.m1, 0.08 * b.m1);
  EXPECT_NEAR(a.atom, b.atom, 0.01);
}

TEST(SaturatedQuantum, ExactModeReturnsDefectiveFullQuantum) {
  const SystemParams sys = gt::single_class_whole_machine(0.985, 1.0, 2.0,
                                                          0.01);
  ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
  const auto sol = gs::qbd::solve(proc.process());
  TruncationOptions tight;
  tight.max_levels = 50;
  const EffectiveQuantum eq =
      proc.effective_quantum(sol, tight, /*want_exact=*/true);
  ASSERT_TRUE(eq.exact.has_value());
  EXPECT_NEAR(eq.exact->atom_at_zero(), eq.atom, 1e-9);
  EXPECT_NEAR(eq.exact->moment(1), eq.m1, 1e-9);
}

TEST(SaturatedQuantum, NormalOperationUnaffected) {
  // At moderate load the cap is never hit and the two paths agree exactly.
  const SystemParams sys = gt::paper_system(0.5, 1.0);
  ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
  const auto sol = gs::qbd::solve(proc.process());
  const EffectiveQuantum a = proc.effective_quantum(sol, {});
  TruncationOptions generous;
  generous.saturated_tail = 0.9;  // fallback effectively disabled
  const EffectiveQuantum b = proc.effective_quantum(sol, generous);
  EXPECT_DOUBLE_EQ(a.m1, b.m1);
  EXPECT_DOUBLE_EQ(a.atom, b.atom);
}

TEST(SaturatedQuantum, EarlyStopKeepsTheFullWalksVerdict) {
  // The truncation scan stops as soon as the tail's decay floor proves the
  // walk would end saturated at max_levels. At loads that straddle the
  // verdict (a proof at the first level, one a few hundred levels in, no
  // proof, and unsaturated cuts at the cap and below it) every answer must
  // be the one the full walk decides: the saturated moments exactly, or
  // the walk's own depth.
  double lo = 0.1, hi = 2.0;  // class 0's stability boundary in lambda
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    const SystemParams sys = gt::paper_system(mid, 1.0);
    try {
      ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
      gs::qbd::solve(proc.process());
      lo = mid;
    } catch (const gs::NumericalError&) {
      hi = mid;
    }
  }
  std::size_t saturated_points = 0, unsaturated_points = 0;
  for (double f : {1.0 - 2e-5, 1.0 - 1e-3, 0.998, 0.997, 0.9965, 0.95}) {
    const SystemParams sys = gt::paper_system(lo * f, 1.0);
    ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
    const auto sol = gs::qbd::solve(proc.process());
    const TruncationOptions trunc;
    auto scan = sol.tail_scan();
    scan.next();
    std::size_t l = sol.boundary_levels();  // the first repeating level
    double tail = scan.next();
    while (l < trunc.max_levels && tail > trunc.tail_eps) {
      ++l;
      tail = scan.next();
    }
    const bool saturated = tail > trunc.saturated_tail;
    (saturated ? saturated_points : unsaturated_points) += 1;
    const EffectiveQuantum eq = proc.effective_quantum(sol, trunc);
    EXPECT_EQ(eq.truncation_levels, l) << "f=" << f;
    const double full = (1.0 - eq.atom) * sys.cls(0).quantum.moment(1);
    if (saturated) {
      EXPECT_EQ(eq.m1, full) << "f=" << f;
    } else {
      EXPECT_LT(eq.m1, full) << "f=" << f;
    }
  }
  EXPECT_EQ(saturated_points, 4u);
  EXPECT_EQ(unsaturated_points, 2u);
}

}  // namespace
