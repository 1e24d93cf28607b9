// Tests of the Theorem-4.3 effective-quantum extraction: the slice class p
// actually receives is min(full quantum, time to drain the queue), with an
// atom at zero when the queue is empty at the slice's start.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang_test_util.hpp"
#include "phase/builders.hpp"
#include "qbd/solver.hpp"

namespace {

using namespace gs::gang;
namespace gt = gs::gang::testing;

struct Extracted {
  ClassProcess proc;
  gs::qbd::QbdSolution sol;
  EffectiveQuantum eq;
};

Extracted extract(const SystemParams& sys, std::size_t p,
                  bool want_exact = false) {
  ClassProcess proc(sys, p, away_period_heavy_traffic(sys, p));
  gs::qbd::QbdSolution sol = gs::qbd::solve(proc.process());
  EffectiveQuantum eq = proc.effective_quantum(sol, {}, want_exact);
  return Extracted{std::move(proc), std::move(sol), std::move(eq)};
}

TEST(EffectiveQuantum, MeanBoundedByFullQuantum) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  for (std::size_t p = 0; p < 4; ++p) {
    const auto ex = extract(sys, p);
    EXPECT_GT(ex.eq.m1, 0.0) << "class " << p;
    EXPECT_LE(ex.eq.m1, sys.cls(p).quantum.mean() + 1e-9) << "class " << p;
    EXPECT_GE(ex.eq.atom, 0.0);
    EXPECT_LT(ex.eq.atom, 1.0);
  }
}

TEST(EffectiveQuantum, HeavierLoadShrinksTheAtom) {
  // A busier class is less likely to be empty when its slice starts.
  const auto light = extract(gt::paper_system(0.2, 1.0), 0);
  const auto heavy = extract(gt::paper_system(0.8, 1.0), 0);
  EXPECT_GT(light.eq.atom, heavy.eq.atom);
  // And its busy slices run longer (closer to the full quantum).
  EXPECT_LT(light.eq.m1, heavy.eq.m1);
}

TEST(EffectiveQuantum, SaturatedClassUsesFullQuantum) {
  // At very high load the queue never drains within a slice, so the
  // effective quantum approaches the full quantum in both moments.
  const SystemParams sys = gt::paper_system(0.95, 1.0);
  const auto ex = extract(sys, 0);
  const auto& full = sys.cls(0).quantum;
  EXPECT_LT(ex.eq.atom, 0.05);
  EXPECT_NEAR(ex.eq.m1, full.mean(), 0.08 * full.mean());
}

TEST(EffectiveQuantum, ExactRepresentationMatchesMoments) {
  const SystemParams sys = gt::two_class_small(0.3, 0.3);
  const auto ex = extract(sys, 0, /*want_exact=*/true);
  ASSERT_TRUE(ex.eq.exact.has_value());
  EXPECT_NEAR(ex.eq.exact->atom_at_zero(), ex.eq.atom, 1e-9);
  EXPECT_NEAR(ex.eq.exact->moment(1), ex.eq.m1, 1e-8);
  EXPECT_NEAR(ex.eq.exact->moment(2), ex.eq.m2, 1e-7);
}

TEST(EffectiveQuantum, FittedMatchesAtomAndMoments) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  const auto ex = extract(sys, 1);
  const PhaseType fit = ex.eq.fitted();
  EXPECT_NEAR(fit.atom_at_zero(), ex.eq.atom, 1e-8);
  EXPECT_NEAR(fit.moment(1), ex.eq.m1, 1e-8 + 1e-6 * ex.eq.m1);
  // The second moment matches unless the SCV clamp engaged.
  const double q = 1.0 - ex.eq.atom;
  const double c1 = ex.eq.m1 / q, c2 = ex.eq.m2 / q;
  const double scv = (c2 - c1 * c1) / (c1 * c1);
  if (scv >= 1.0 / 8.0) {
    EXPECT_NEAR(fit.moment(2), ex.eq.m2, 1e-6 * (1.0 + ex.eq.m2));
  }
}

TEST(EffectiveQuantum, MomentsAreValid) {
  // m2 >= m1^2 (Jensen) for every paper class at several loads.
  for (double lambda : {0.2, 0.5, 0.8}) {
    const SystemParams sys = gt::paper_system(lambda, 1.0);
    for (std::size_t p = 0; p < 4; ++p) {
      const auto ex = extract(sys, p);
      EXPECT_GE(ex.eq.m2, ex.eq.m1 * ex.eq.m1 - 1e-12)
          << "lambda=" << lambda << " class=" << p;
    }
  }
}

TEST(EffectiveQuantum, TruncationDeepEnough) {
  const SystemParams sys = gt::paper_system(0.8, 1.0);
  const auto ex = extract(sys, 0);
  // Deeper than the boundary, bounded by the hard cap.
  EXPECT_GT(ex.eq.truncation_levels, 8u);
  EXPECT_LE(ex.eq.truncation_levels, TruncationOptions{}.max_levels);
  // The stationary mass beyond the chosen depth is negligible.
  EXPECT_LT(ex.sol.tail_mass_from(ex.eq.truncation_levels - 8), 1e-11);
}

TEST(EffectiveQuantum, TighterEpsDeepensTruncation) {
  const SystemParams sys = gt::paper_system(0.8, 1.0);
  ClassProcess proc(sys, 0, away_period_heavy_traffic(sys, 0));
  const auto sol = gs::qbd::solve(proc.process());
  TruncationOptions loose;
  loose.tail_eps = 1e-6;
  TruncationOptions tight;
  tight.tail_eps = 1e-14;
  const auto a = proc.effective_quantum(sol, loose);
  const auto b = proc.effective_quantum(sol, tight);
  EXPECT_LT(a.truncation_levels, b.truncation_levels);
  // Moments barely move: truncation error is controlled.
  EXPECT_NEAR(a.m1, b.m1, 1e-4 * (1.0 + b.m1));
}

// ClassProcess keeps the block elimination of its serving-state chain
// across update_away calls (T does not depend on the away period). Reuse
// must not change a single bit: every extraction equals a freshly built
// process's, while the truncation depth rises, falls and repeats — so the
// kept prefix is cut both shorter than and exactly at its grown depth.
void expect_reuse_matches_fresh(const SystemParams& sys, std::size_t p,
                                bool want_exact) {
  namespace ph = gs::phase;
  const std::vector<PhaseType> aways = {
      ph::erlang(2, 0.5), ph::erlang(2, 4.0), ph::exponential(1.0 / 1.5),
      ph::erlang(2, 4.0), ph::erlang(3, 0.8), ph::erlang(2, 4.0)};
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ClassProcess reused(sys, p, aways[0]);
  std::vector<std::size_t> depth;
  for (std::size_t k = 0; k < aways.size(); ++k) {
    SCOPED_TRACE("away period " + std::to_string(k));
    if (k > 0) reused.update_away(aways[k]);
    const EffectiveQuantum a = reused.effective_quantum(
        gs::qbd::solve(reused.process()), {}, want_exact);
    ClassProcess fresh(sys, p, aways[k]);
    const EffectiveQuantum b = fresh.effective_quantum(
        gs::qbd::solve(fresh.process()), {}, want_exact);
    EXPECT_EQ(bits(a.m1), bits(b.m1));
    EXPECT_EQ(bits(a.m2), bits(b.m2));
    EXPECT_EQ(bits(a.atom), bits(b.atom));
    EXPECT_EQ(a.truncation_levels, b.truncation_levels);
    ASSERT_EQ(a.exact.has_value(), want_exact);
    ASSERT_EQ(b.exact.has_value(), want_exact);
    if (want_exact) {
      const gs::linalg::Matrix& ta = a.exact->generator();
      const gs::linalg::Matrix& tb = b.exact->generator();
      ASSERT_EQ(ta.rows(), tb.rows());
      EXPECT_EQ(gs::linalg::max_abs_diff(ta, tb), 0.0);
      ASSERT_EQ(a.exact->alpha().size(), b.exact->alpha().size());
      for (std::size_t i = 0; i < a.exact->alpha().size(); ++i)
        EXPECT_EQ(bits(a.exact->alpha()[i]), bits(b.exact->alpha()[i]));
    }
    depth.push_back(a.truncation_levels);
  }
  EXPECT_GT(depth[1], depth[0]);  // rise
  EXPECT_LT(depth[2], depth[1]);  // fall
  EXPECT_EQ(depth[3], depth[1]);  // repeat the grown depth
  EXPECT_LT(depth[4], depth[3]);
  EXPECT_EQ(depth[5], depth[1]);
}

TEST(EffectiveQuantum, ReusedFactorMatchesFreshMomentMatched) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  expect_reuse_matches_fresh(sys, 0, /*want_exact=*/false);
  expect_reuse_matches_fresh(sys, 3, /*want_exact=*/false);
  // Phase-type service: several configurations per level.
  ClassParams c{gs::phase::exponential(0.2),
                gs::phase::hyperexponential({0.3, 0.7}, {0.5, 2.0}),
                gs::phase::erlang(2, 1.0), gs::phase::exponential(100.0), 1,
                "h2"};
  expect_reuse_matches_fresh(SystemParams(2, {c}), 0, /*want_exact=*/false);
}

TEST(EffectiveQuantum, ReusedFactorMatchesFreshExact) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  expect_reuse_matches_fresh(sys, 0, /*want_exact=*/true);
  expect_reuse_matches_fresh(gt::two_class_small(0.3, 0.3), 0,
                             /*want_exact=*/true);
}

}  // namespace
