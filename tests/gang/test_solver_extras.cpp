// Tests of the solver's auxiliary outputs: the single-class heavy-traffic
// solve (Figure 5's tool), the queue-length variance, and sp(R).
#include <gtest/gtest.h>

#include <cmath>

#include "gang/solver.hpp"
#include "gang_test_util.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace {

using namespace gs::gang;
namespace gt = gs::gang::testing;

TEST(SingleClassSolve, MatchesHeavyTrafficModeOfFullSolver) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  GangSolveOptions heavy;
  heavy.fixed_point = false;
  const SolveReport full = GangSolver(sys, heavy).solve();
  for (std::size_t p = 0; p < 4; ++p) {
    const ClassResult single = solve_class_heavy_traffic(sys, p);
    EXPECT_NEAR(single.mean_jobs, full.per_class[p].mean_jobs, 1e-9)
        << "class " << p;
    EXPECT_NEAR(single.prob_empty, full.per_class[p].prob_empty, 1e-10);
  }
}

TEST(SingleClassSolve, WorksWhenOtherClassesAreUnstable) {
  // Give class 0 a generous quantum and starve the others: the full fixed
  // point throws, the single-class solve still answers for class 0.
  ClassParams favored{gs::phase::exponential(0.5), gs::phase::exponential(1.0),
                      gs::phase::erlang(2, 4.0), gs::phase::exponential(100.0),
                      2, "favored"};
  ClassParams starved{gs::phase::exponential(0.5), gs::phase::exponential(1.0),
                      gs::phase::erlang(2, 0.02),
                      gs::phase::exponential(100.0), 2, "starved"};
  const SystemParams sys(4, {favored, starved});
  EXPECT_THROW(GangSolver(sys).solve(), gs::NumericalError);
  const ClassResult r = solve_class_heavy_traffic(sys, 0);
  EXPECT_GT(r.mean_jobs, 0.0);
  EXPECT_LT(r.sp_r, 1.0);
  // The starved class really is unstable even alone under heavy traffic.
  EXPECT_THROW(solve_class_heavy_traffic(sys, 1), gs::NumericalError);
}

TEST(VarianceOfN, MatchesQueueDistributionMoments) {
  GangSolveOptions opt;
  opt.queue_dist_levels = 400;  // enough tail for a direct second moment
  const SolveReport rep = GangSolver(gt::paper_system(0.4, 1.0), opt).solve();
  for (const auto& r : rep.per_class) {
    double m1 = 0.0, m2 = 0.0, mass = 0.0;
    for (std::size_t n = 0; n < r.queue_dist.size(); ++n) {
      m1 += static_cast<double>(n) * r.queue_dist[n];
      m2 += static_cast<double>(n) * static_cast<double>(n) *
            r.queue_dist[n];
      mass += r.queue_dist[n];
    }
    ASSERT_NEAR(mass, 1.0, 1e-8) << r.name;  // tail fully captured
    EXPECT_NEAR(m1, r.mean_jobs, 1e-7) << r.name;
    EXPECT_NEAR(m2 - m1 * m1, r.var_jobs, 1e-5) << r.name;
    EXPECT_GT(r.var_jobs, 0.0) << r.name;
  }
}

TEST(VarianceOfN, Mm1LimitClosedForm) {
  // Geometric N: Var = rho/(1-rho)^2.
  const double rho = 0.6;
  const SolveReport rep =
      GangSolver(gt::single_class_whole_machine(rho, 1.0)).solve();
  EXPECT_NEAR(rep.per_class[0].var_jobs, rho / ((1 - rho) * (1 - rho)),
              0.02 * rho / ((1 - rho) * (1 - rho)));
}

TEST(VarianceOfN, GrowsWithLoad) {
  double prev = 0.0;
  for (double lambda : {0.3, 0.6, 0.85}) {
    const SolveReport rep = GangSolver(gt::paper_system(lambda, 1.0)).solve();
    double total_var = 0.0;
    for (const auto& r : rep.per_class) total_var += r.var_jobs;
    EXPECT_GT(total_var, prev) << "lambda=" << lambda;
    prev = total_var;
  }
}

// The per-class solves admit R from (I-R)^{-1} e and run no power
// iteration: a Figure 2 answer with L classes computes sp(R) exactly L
// times, once per class for its report, however many iterations the
// fixed point takes — and reports the power iteration's value.
TEST(GangSolver, PowerIterationRunsOncePerClassPerAnswer) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  gs::obs::reset();
  const SolveReport report = GangSolver(sys).solve();
  const gs::obs::Snapshot snap = gs::obs::snapshot();
  gs::obs::configure({});
  ASSERT_GT(report.iterations, 1);
  EXPECT_EQ(snap.counter_value("linalg.spectral_radius.calls"),
            sys.num_classes());
  for (const ClassResult& c : report.per_class) {
    EXPECT_GT(c.sp_r, 0.0);
    EXPECT_LT(c.sp_r, 1.0);
  }
}

}  // namespace
