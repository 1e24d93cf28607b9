// A P = 64 system with partition sizes g = 1, 2, 4, 8: the widest class
// has c = 64 boundary-interior levels, the deepest boundary the level
// reduction in qbd::solve_with_r meets on a paper-shaped workload. The
// fixed point must converge, and every class's chain at the final
// iterate must solve to the dense balance-LU oracle's answer. Answers
// only; no timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "../qbd/dense_boundary_oracle.hpp"
#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "phase/builders.hpp"
#include "qbd/solver.hpp"

namespace {

using gs::gang::ClassParams;
using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Vector;

// Figure 2's shape scaled to P = 64: service rates 0.5 : 1 : 2 : 4,
// Erlang-2 unit quanta, overhead mean 0.01, each class at load rho_p.
SystemParams wide_system(double rho_p) {
  constexpr std::size_t kP = 64;
  const double mu[4] = {0.5, 1.0, 2.0, 4.0};
  std::vector<ClassParams> cls;
  for (std::size_t p = 0; p < 4; ++p) {
    const std::size_t g = std::size_t{1} << p;
    const double lambda = rho_p * mu[p] * static_cast<double>(kP / g);
    cls.push_back(ClassParams{gs::phase::exponential(lambda),
                              gs::phase::exponential(mu[p]),
                              gs::phase::erlang(2, 1.0),
                              gs::phase::exponential(100.0), g,
                              "class" + std::to_string(p)});
  }
  return SystemParams(kP, std::move(cls));
}

// rho_p = 0.1 is the paper-shaped load; at rho_p = 0.01 the deepest
// boundary levels hold vanishing mass, which stresses the scaling of the
// top-level normalization.
class WideClass : public ::testing::TestWithParam<double> {};

TEST_P(WideClass, P64SolvesAndMatchesDenseOracle) {
  const SystemParams sys = wide_system(GetParam());
  const gs::gang::SolveReport rep = gs::gang::GangSolver(sys).solve();
  ASSERT_TRUE(rep.converged);
  ASSERT_EQ(rep.final_slices.size(), sys.num_classes());

  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    const ClassProcess cp(
        sys, p, gs::gang::away_period(sys, p, rep.final_slices));
    const gs::qbd::QbdProcess& proc = cp.process();
    EXPECT_EQ(proc.boundary_levels(), 64u >> p);
    const auto& blk = proc.blocks();
    const auto rres = gs::qbd::solve_r_logreduction(blk.a0, blk.a1, blk.a2);
    const gs::qbd::QbdSolution sol = gs::qbd::solve_with_r(proc, rres.r);
    const std::vector<Vector> ref =
        gs::qbd::testing::dense_boundary(proc, rres.r);
    ASSERT_EQ(sol.boundary_levels(), ref.size());

    // Normwise over the boundary (see tests/qbd/test_boundary_random.cpp).
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      for (std::size_t k = 0; k < ref[i].size(); ++k) {
        diff = std::max(diff, std::fabs(sol.boundary_level(i)[k] - ref[i][k]));
        scale = std::max(scale, std::fabs(ref[i][k]));
      }
    EXPECT_LE(diff, 1e-12 * scale);
    const gs::qbd::QbdSolution oracle(ref, rres.r, sol.spectral_radius_r());
    EXPECT_NEAR(sol.mean_level(), oracle.mean_level(),
                1e-12 * oracle.mean_level());
    // The chain at the final iterate reproduces the reported N_p to the
    // fixed point's tolerance.
    EXPECT_NEAR(sol.mean_level(), rep.per_class[p].mean_jobs, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, WideClass, ::testing::Values(0.1, 0.01));

}  // namespace
