// Warm-started fixed-point solves: starting the Section 4.3 iteration
// from a previously converged scenario's effective quanta must reach the
// same fixed point in fewer iterations.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "gang/solver.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"

namespace {

using gs::gang::GangSolveOptions;
using gs::gang::GangSolver;
using gs::gang::SolveReport;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;

double max_abs_dn(const SolveReport& a, const SolveReport& b) {
  EXPECT_EQ(a.per_class.size(), b.per_class.size());
  double d = 0.0;
  for (std::size_t p = 0; p < a.per_class.size(); ++p)
    d = std::max(d,
                 std::fabs(a.per_class[p].mean_jobs - b.per_class[p].mean_jobs));
  return d;
}

TEST(WarmStart, ReportsFinalSlices) {
  const auto sys = paper_system();
  const SolveReport cold = GangSolver(sys).solve();
  ASSERT_EQ(cold.final_slices.size(), sys.num_classes());
  EXPECT_FALSE(cold.used_warm_start);
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    // The converged slice is the effective quantum: no longer than the
    // full quantum on average, with some atom at zero under rho = 0.4.
    EXPECT_LE(cold.final_slices[p].mean(), sys.cls(p).quantum.mean() + 1e-9);
    EXPECT_GT(cold.final_slices[p].atom_at_zero(), 0.0);
  }
}

TEST(WarmStart, SameScenarioConvergesFasterToSameFixedPoint) {
  const auto sys = paper_system();
  GangSolveOptions opts;
  const GangSolver solver(sys, opts);
  const SolveReport cold = solver.solve();
  ASSERT_TRUE(cold.converged);
  ASSERT_GE(cold.iterations, 3);  // the cold Figure 2 solve is not trivial

  const SolveReport warm = solver.solve_warm(cold.final_slices);
  EXPECT_TRUE(warm.converged);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_LE(max_abs_dn(cold, warm), 10.0 * opts.tol);
}

TEST(WarmStart, PerturbedScenarioConvergesFasterToSameFixedPoint) {
  GangSolveOptions opts;
  const SolveReport base = GangSolver(paper_system(), opts).solve();

  PaperKnobs knobs;
  knobs.arrival_rate = 0.44;  // perturb rho 0.4 -> 0.44
  const auto perturbed = paper_system(knobs);

  const GangSolver solver(perturbed, opts);
  const SolveReport cold = solver.solve();
  const SolveReport warm = solver.solve_warm(base.final_slices);

  EXPECT_TRUE(warm.converged);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_LE(max_abs_dn(cold, warm), 10.0 * opts.tol);
}

TEST(WarmStart, WrongSliceCountThrows) {
  const auto sys = paper_system();
  const SolveReport cold = GangSolver(sys).solve();
  auto slices = cold.final_slices;
  slices.pop_back();
  EXPECT_THROW(GangSolver(sys).solve_warm(slices), gs::InvalidArgument);
}

TEST(WarmStart, UnstableWarmSlicesFallBackToCold) {
  // Heavy-load scenario: warm slices from a light-load donor make every
  // other class look *shorter* than its fixed point, which is the
  // optimistic direction — the solve must still answer, either directly
  // or through the cold fallback.
  PaperKnobs light;
  light.arrival_rate = 0.1;
  const SolveReport donor = GangSolver(paper_system(light), {}).solve();

  PaperKnobs heavy;
  heavy.arrival_rate = 0.9;  // Figure 3's rho = 0.9
  const GangSolver solver(paper_system(heavy), {});
  const SolveReport cold = solver.solve();
  const SolveReport warm = solver.solve_warm(donor.final_slices);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(max_abs_dn(cold, warm), 1e-4);
}

TEST(WarmStart, StarvedRBudgetWalksTheRetryLadder) {
  // A 6-iteration log-reduction budget fails the R solve (NumericalError)
  // of the heavier chains, so across lambda = 0.4..0.9 the cold solve
  // ends on every rung of its retry ladder: solved from the heavy-traffic
  // start, solved on the optimistic retry, or thrown. A warm start from a
  // light-load donor either answers warm or ends exactly as the cold
  // solve does, error text included.
  GangSolveOptions options;
  options.qbd.r_options.max_iter = 6;
  PaperKnobs light;
  light.arrival_rate = 0.1;
  const SolveReport donor = GangSolver(paper_system(light)).solve();
  int solved = 0, optimistic = 0, failed = 0;
  for (int i = 0; i < 6; ++i) {
    PaperKnobs k;
    k.arrival_rate = 0.4 + 0.1 * i;
    SCOPED_TRACE("lambda " + std::to_string(k.arrival_rate));
    const GangSolver solver(paper_system(k), options);
    std::optional<SolveReport> cold;
    std::string cold_error;
    try {
      cold = solver.solve();
      ++(cold->used_optimistic_init ? optimistic : solved);
    } catch (const gs::NumericalError& e) {
      cold_error = e.what();
      ++failed;
      EXPECT_NE(cold_error.find("logarithmic reduction for R"),
                std::string::npos)
          << cold_error;
    }
    try {
      const SolveReport warm = solver.solve_warm(donor.final_slices);
      if (warm.used_warm_start) continue;
      ASSERT_TRUE(cold.has_value()) << "cold threw: " << cold_error;
      EXPECT_EQ(warm.iterations, cold->iterations);
      EXPECT_EQ(warm.used_optimistic_init, cold->used_optimistic_init);
      EXPECT_EQ(max_abs_dn(warm, *cold), 0.0);
    } catch (const gs::NumericalError& e) {
      EXPECT_EQ(std::string(e.what()), cold_error);
    }
  }
  EXPECT_GT(solved, 0);
  EXPECT_GT(optimistic, 0);
  EXPECT_GT(failed, 0);
}

}  // namespace
