// The Anderson-accelerated fixed-point update (gang/anderson.hpp): the
// accelerated iteration converges on every point of the Figure 2 sweep,
// lands on the same fixed point as a tight-tolerance solve, leaves a
// state a warm restart accepts at once, and keeps the plain update (and
// its verdicts) where the safeguards say it must.
//
// Solves go through GangSolver::solve_batch at GS_BATCH_WIDTH lanes when
// CI exports it (unset: width 8), so the suite also runs per matrix leg.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "gang/anderson.hpp"
#include "gang/solver.hpp"
#include "obs/obs.hpp"
#include "phase/builders.hpp"
#include "phase/fitting.hpp"
#include "workload/paper_configs.hpp"
#include "workload/sweep.hpp"

namespace {

using namespace gs;
using namespace gs::gang;

std::size_t width_under_test() {
  if (const char* env = std::getenv("GS_BATCH_WIDTH"); env != nullptr)
    return static_cast<std::size_t>(std::stoul(env));
  return 8;
}

SystemParams quantum_system(double arrival_rate, double quantum_mean) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = arrival_rate;
  knobs.quantum_mean = quantum_mean;
  return workload::paper_system(knobs);
}

SystemParams figure4_system(double service_rate) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.6;
  knobs.quantum_mean = 5.0;
  knobs.uniform_service_rate = service_rate;
  return workload::paper_system(knobs);
}

struct Scenario {
  std::string name;
  SystemParams params;
};

// Figure 2-5 points the heavy-traffic initialization admits, spread over
// each figure's x-axis (both sides of Figure 2's former convergence edge
// near quantum 2.29 included).
std::vector<Scenario> figure_scenarios() {
  std::vector<Scenario> out;
  for (const double q : {0.1, 0.5, 1.0, 1.8, 2.5, 4.0, 6.0})
    out.push_back({"fig2 q=" + std::to_string(q), quantum_system(0.4, q)});
  for (const double q : {0.2, 0.5, 1.0, 2.5, 4.0, 6.0})
    out.push_back({"fig3 q=" + std::to_string(q), quantum_system(0.9, q)});
  for (const double mu : {4.0, 8.0, 14.0, 20.0})
    out.push_back({"fig4 mu=" + std::to_string(mu), figure4_system(mu)});
  const std::pair<std::size_t, double> fig5[] = {
      {0, 0.2}, {0, 0.5}, {1, 0.4}, {2, 0.5}, {3, 0.3}};
  for (const auto& [favored, fraction] : fig5)
    out.push_back({"fig5 favored=" + std::to_string(favored) +
                       " fraction=" + std::to_string(fraction),
                   workload::figure5_system(favored, fraction)});
  return out;
}

std::vector<BatchOutcome> solve_all(const std::vector<GangSolver>& solvers,
                                    const std::vector<PhaseType>* const* warm) {
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < solvers.size(); ++i)
    items.push_back({&solvers[i], warm != nullptr ? warm[i] : nullptr});
  return GangSolver::solve_batch(items, width_under_test());
}

TEST(FixedPointAcceleration, Figure2GridConvergesWithinDefaultCap) {
  // The canonical 64-point grid of quantum means over [0.25, 4]. The
  // plain update stopped at max_iterations on the 29 points above 2.29.
  constexpr std::size_t kPoints = 64;
  std::vector<double> xs;
  for (std::size_t i = 0; i < kPoints; ++i)
    xs.push_back(0.25 + 3.75 * static_cast<double>(i) /
                            static_cast<double>(kPoints - 1));
  workload::SweepOptions opts;
  opts.batch_width = width_under_test();
  const std::vector<workload::SweepPoint> points = workload::sweep(
      xs, [](double q) { return quantum_system(0.4, q); }, opts);
  ASSERT_EQ(points.size(), kPoints);
  for (const workload::SweepPoint& pt : points) {
    SCOPED_TRACE("quantum " + std::to_string(pt.x));
    EXPECT_TRUE(pt.error.empty()) << pt.error;
    EXPECT_TRUE(pt.converged);
    EXPECT_LT(pt.iterations, opts.solver.max_iterations);
  }
}

TEST(FixedPointAcceleration, DefaultTolAnswersMatchTightTolSolve) {
  // Stopping when successive N_p move less than tol must leave each
  // answer within 10 tol of the fixed point itself.
  const std::vector<Scenario> scenarios = figure_scenarios();
  const GangSolveOptions base{};
  GangSolveOptions tight = base;
  tight.tol = 1e-12;
  tight.max_iterations = 200;
  std::vector<GangSolver> solvers;
  for (const Scenario& s : scenarios) solvers.emplace_back(s.params, base);
  const std::vector<BatchOutcome> got = solve_all(solvers, nullptr);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    ASSERT_TRUE(got[i].error.empty()) << got[i].error;
    const SolveReport& rep = got[i].report;
    ASSERT_FALSE(rep.used_optimistic_init);
    EXPECT_TRUE(rep.converged);
    const SolveReport ref = GangSolver(scenarios[i].params, tight).solve();
    ASSERT_TRUE(ref.converged);
    for (std::size_t p = 0; p < rep.per_class.size(); ++p) {
      EXPECT_NEAR(rep.per_class[p].mean_jobs, ref.per_class[p].mean_jobs,
                  10 * base.tol)
          << "class " << p;
    }
  }
}

TEST(FixedPointAcceleration, WarmRestartFromFinalSlicesStopsAtOnce) {
  // final_slices is the plain image of the last iterate; restarting from
  // it must meet the tolerance on the first comparison (iteration 2).
  std::vector<Scenario> scenarios;
  for (const double q : {1.0, 2.5, 4.0})
    scenarios.push_back({"fig2 q=" + std::to_string(q),
                         quantum_system(0.4, q)});
  for (const double q : {1.0, 4.0})
    scenarios.push_back({"fig3 q=" + std::to_string(q),
                         quantum_system(0.9, q)});
  const GangSolveOptions options{};
  std::vector<GangSolver> solvers;
  for (const Scenario& s : scenarios) solvers.emplace_back(s.params, options);
  std::vector<SolveReport> cold;
  for (const GangSolver& s : solvers) cold.push_back(s.solve());

  std::vector<const std::vector<PhaseType>*> seeds;
  for (const SolveReport& r : cold) seeds.push_back(&r.final_slices);
  const std::vector<BatchOutcome> batched = solve_all(solvers, seeds.data());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    const SolveReport warm = solvers[i].solve_warm(cold[i].final_slices);
    EXPECT_TRUE(warm.used_warm_start);
    EXPECT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, 2);
    ASSERT_TRUE(batched[i].error.empty()) << batched[i].error;
    EXPECT_LE(batched[i].report.iterations, 2);
    EXPECT_TRUE(batched[i].report.converged);
  }
}

TEST(FixedPointAcceleration, OptimisticInitKeepsPlainUpdateAndVerdict) {
  // Figure 4 at service rate 2 is unstable under the heavy-traffic
  // initialization, so the solve falls back to the optimistic one, which
  // keeps the plain update: its verdict (the cap, unconverged) and its
  // iteration count are those of the plain iteration.
  const GangSolveOptions options{};
  const std::vector<GangSolver> solvers{GangSolver(figure4_system(2.0),
                                                   options)};
  const SolveReport scalar = solvers[0].solve();
  EXPECT_TRUE(scalar.used_optimistic_init);
  EXPECT_FALSE(scalar.converged);
  EXPECT_EQ(scalar.iterations, options.max_iterations);
  const std::vector<BatchOutcome> got = solve_all(solvers, nullptr);
  ASSERT_TRUE(got[0].error.empty()) << got[0].error;
  EXPECT_TRUE(got[0].report.used_optimistic_init);
  EXPECT_FALSE(got[0].report.converged);
  EXPECT_EQ(got[0].report.iterations, options.max_iterations);

  // The same system with the optimistic initialization requested up
  // front runs the plain update too, so it stops at the same cap.
  GangSolveOptions optimistic = options;
  optimistic.init = InitMode::kOptimistic;
  const SolveReport direct = GangSolver(figure4_system(2.0), optimistic).solve();
  EXPECT_FALSE(direct.converged);
  EXPECT_EQ(direct.iterations, options.max_iterations);
}

// -- the accelerator alone, driven by a synthetic moment map --------------

// One class's (atom, m1, m2), read back from a fitted slice.
struct Moments {
  double atom, m1, m2;
};

Moments read_back(const PhaseType& slice) {
  return {slice.atom_at_zero(), slice.mean(), slice.moment(2)};
}

EffectiveQuantum quantum_of(const Moments& m) {
  EffectiveQuantum eq;
  eq.atom = m.atom;
  eq.m1 = m.m1;
  eq.m2 = m.m2;
  return eq;
}

TEST(FixedPointAcceleration, AcceleratorSolvesAnAffineContraction) {
  // Each class contracts toward its own target at its own rate (0.6 to
  // 0.9 per step, Figure 2's range): the plain update would still be 20%
  // away after 15 steps; the accelerated one must be at the target.
  const SystemParams params = quantum_system(0.4, 1.0);  // E[Q]=1, E[Q^2]=1.5
  const std::size_t L = params.num_classes();
  const double rates[] = {0.6, 0.7, 0.8, 0.9};
  const Moments start{0.2, 0.6, 0.9};
  const Moments target{0.5, 0.3, 0.45};
  const auto image = [&](const std::vector<PhaseType>& slices) {
    std::vector<EffectiveQuantum> out;
    for (std::size_t q = 0; q < L; ++q) {
      const Moments x = read_back(slices[q]);
      const double c = rates[q];
      out.push_back(quantum_of({target.atom + c * (x.atom - target.atom),
                                target.m1 + c * (x.m1 - target.m1),
                                target.m2 + c * (x.m2 - target.m2)}));
    }
    return out;
  };

  AndersonAccelerator accel(params);
  std::vector<PhaseType> slices(L, phase::with_atom(
                                       phase::exponential(1.0 / 0.75), 0.2));
  ASSERT_NEAR(read_back(slices[0]).m1, start.m1, 1e-12);
  for (int step = 0; step < 15; ++step)
    accel.next_slices(image(slices), 8, slices);
  for (std::size_t q = 0; q < L; ++q) {
    const Moments x = read_back(slices[q]);
    EXPECT_NEAR(x.atom, target.atom, 1e-9) << "class " << q;
    EXPECT_NEAR(x.m1, target.m1, 1e-9) << "class " << q;
    EXPECT_NEAR(x.m2, target.m2, 1e-9) << "class " << q;
  }
}

TEST(FixedPointAcceleration, InfeasibleExtrapolationTakesThePlainImage) {
  // A map whose fixed point has atom 1.2: the images stay feasible for a
  // while, but the secant step extrapolates past atom 1, so the
  // safeguard must hand back the plain image and restart the history.
  obs::configure({/*metrics=*/true, /*trace=*/false});
  obs::reset();
  const SystemParams params = quantum_system(0.4, 1.0);
  const std::size_t L = params.num_classes();
  std::vector<PhaseType> slices(L, phase::with_atom(
                                       phase::exponential(1.0 / 0.75), 0.0));
  AndersonAccelerator accel(params);
  std::vector<EffectiveQuantum> img;
  const auto next_image = [&] {
    img.clear();
    for (std::size_t q = 0; q < L; ++q) {
      const Moments x = read_back(slices[q]);
      img.push_back(quantum_of({1.2 + 0.9 * (x.atom - 1.2), 0.3, 0.45}));
    }
  };
  for (int step = 0; step < 3; ++step) {
    next_image();
    accel.next_slices(img, 8, slices);
    for (std::size_t q = 0; q < L; ++q) {
      const Moments x = read_back(slices[q]);
      ASSERT_GE(x.atom, 0.0);
      ASSERT_LT(x.atom, 1.0);
      EXPECT_NEAR(x.atom, img[q].atom, 1e-12)
          << "step " << step << ": only plain images are feasible here";
    }
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::configure({});
  EXPECT_EQ(snap.counter_value("gang.solve.accel.steps"), 0u);
  EXPECT_GE(snap.counter_value("gang.solve.accel.rejected"), 1u);
}

}  // namespace
