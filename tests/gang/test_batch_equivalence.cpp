// The batched solver's contract, end to end: GangSolver::solve_batch on
// the paper's Figure 2-5 configurations must reproduce the scalar
// solve()/solve_warm() reports bit for bit at every batch width — lanes
// retire from the lock-step independently, and a retired lane's frozen
// storage is exactly the scalar solver's converged state.
//
// CI runs this suite once per matrix width by setting GS_BATCH_WIDTH to
// 1, 4, or 8; unset, every width of kWidths runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "gang/solver.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"

namespace {

using namespace gs;
using namespace gs::gang;

constexpr std::size_t kWidths[] = {1, 2, 4, 8};

std::vector<std::size_t> widths_under_test() {
  if (const char* env = std::getenv("GS_BATCH_WIDTH"); env != nullptr) {
    return {static_cast<std::size_t>(std::stoul(env))};
  }
  return {std::begin(kWidths), std::end(kWidths)};
}

void expect_identical(const SolveReport& a, const SolveReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_delta, b.final_delta);
  EXPECT_EQ(a.mean_cycle_length, b.mean_cycle_length);
  EXPECT_EQ(a.used_optimistic_init, b.used_optimistic_init);
  EXPECT_EQ(a.used_warm_start, b.used_warm_start);
  ASSERT_EQ(a.final_slices.size(), b.final_slices.size());
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t p = 0; p < a.per_class.size(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    const ClassResult& x = a.per_class[p];
    const ClassResult& y = b.per_class[p];
    EXPECT_EQ(x.mean_jobs, y.mean_jobs);
    EXPECT_EQ(x.var_jobs, y.var_jobs);
    EXPECT_EQ(x.response_time, y.response_time);
    EXPECT_EQ(x.serving_fraction, y.serving_fraction);
    EXPECT_EQ(x.prob_empty, y.prob_empty);
    EXPECT_EQ(x.sp_r, y.sp_r);
    EXPECT_EQ(x.eff_quantum_mean, y.eff_quantum_mean);
    EXPECT_EQ(x.eff_quantum_atom, y.eff_quantum_atom);
    EXPECT_EQ(x.arrive_immediate, y.arrive_immediate);
    EXPECT_EQ(x.arrive_wait_slice, y.arrive_wait_slice);
    EXPECT_EQ(x.arrive_queued, y.arrive_queued);
    EXPECT_EQ(x.mean_slice_wait, y.mean_slice_wait);
    EXPECT_EQ(x.queue_dist, y.queue_dist);
  }
}

// A family of same-structure scenarios: the figure's system with the
// arrival rate perturbed per lane (rates move, shapes don't).
std::vector<SystemParams> lane_systems(const workload::PaperKnobs& base,
                                       std::size_t count) {
  std::vector<SystemParams> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workload::PaperKnobs knobs = base;
    knobs.arrival_rate = base.arrival_rate * (1.0 + 0.02 * i);
    out.push_back(workload::paper_system(knobs));
  }
  return out;
}

// Batched-vs-scalar on `systems`, cold or warm, at every width under
// test. Every lane must match its scalar twin exactly.
void check_batched(const std::vector<SystemParams>& systems,
                   const GangSolveOptions& options,
                   const std::vector<PhaseType>* warm) {
  std::vector<GangSolver> solvers;
  solvers.reserve(systems.size());
  for (const SystemParams& sys : systems) solvers.emplace_back(sys, options);

  std::vector<SolveReport> scalar;
  scalar.reserve(solvers.size());
  for (const GangSolver& s : solvers)
    scalar.push_back(warm != nullptr ? s.solve_warm(*warm) : s.solve());

  for (const std::size_t width : widths_under_test()) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<BatchItem> items;
    items.reserve(solvers.size());
    for (const GangSolver& s : solvers) items.push_back({&s, warm});
    const std::vector<BatchOutcome> got =
        GangSolver::solve_batch(items, width);
    ASSERT_EQ(got.size(), solvers.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("lane " + std::to_string(i));
      ASSERT_TRUE(got[i].error.empty()) << got[i].error;
      EXPECT_TRUE(got[i].batched);
      expect_identical(got[i].report, scalar[i]);
    }
  }
}

TEST(GangBatchEquivalence, Figure2LightLoadCold) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  check_batched(lane_systems(knobs, 8), GangSolveOptions{}, nullptr);
}

TEST(GangBatchEquivalence, Figure3HeavyLoadCold) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.9;
  // Heavier load leaves less rate headroom for the lane perturbations.
  std::vector<SystemParams> systems;
  for (std::size_t i = 0; i < 8; ++i) {
    workload::PaperKnobs k = knobs;
    k.arrival_rate = 0.9 - 0.01 * static_cast<double>(i);
    systems.push_back(workload::paper_system(k));
  }
  check_batched(systems, GangSolveOptions{}, nullptr);
}

TEST(GangBatchEquivalence, Figure4UniformServiceCold) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.5;
  knobs.uniform_service_rate = 2.0;
  check_batched(lane_systems(knobs, 8), GangSolveOptions{}, nullptr);
}

TEST(GangBatchEquivalence, Figure5FavoredClassCold) {
  std::vector<SystemParams> systems;
  for (std::size_t i = 0; i < 8; ++i) {
    systems.push_back(workload::figure5_system(
        /*favored=*/1, /*fraction=*/0.35 + 0.01 * static_cast<double>(i)));
  }
  check_batched(systems, GangSolveOptions{}, nullptr);
}

TEST(GangBatchEquivalence, Figure2WarmStart) {
  workload::PaperKnobs donor_knobs;
  donor_knobs.arrival_rate = 0.38;
  const SolveReport donor =
      GangSolver(workload::paper_system(donor_knobs)).solve();
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  check_batched(lane_systems(knobs, 8), GangSolveOptions{},
                &donor.final_slices);
}

// An R iteration budget too small for the heavier chains: their log
// reductions throw, so lanes climb the retry ladder (warm -> cold heavy
// traffic -> optimistic) or end in an error, and every outcome, report or
// error text, must still be the scalar one.
TEST(GangBatchEquivalence, StarvedRBudgetReplaysTheLadder) {
  GangSolveOptions options;
  options.qbd.r_options.max_iter = 6;
  workload::PaperKnobs light;
  light.arrival_rate = 0.1;
  const SolveReport donor = GangSolver(workload::paper_system(light)).solve();
  std::vector<GangSolver> solvers;
  for (std::size_t i = 0; i < 6; ++i) {
    workload::PaperKnobs k;
    k.arrival_rate = 0.4 + 0.1 * static_cast<double>(i);
    solvers.emplace_back(workload::paper_system(k), options);
  }
  // Scalar outcomes seen: a report (first attempt or the optimistic rung)
  // or the thrown error. The budget is chosen to reach all three.
  int solved = 0, optimistic = 0, failed = 0;
  for (const std::vector<PhaseType>* warm :
       {static_cast<const std::vector<PhaseType>*>(nullptr),
        &donor.final_slices}) {
    SCOPED_TRACE(warm != nullptr ? "warm" : "cold");
    std::vector<BatchItem> items;
    for (const GangSolver& s : solvers) items.push_back({&s, warm});
    std::vector<std::optional<SolveReport>> want(solvers.size());
    std::vector<std::string> want_error(solvers.size());
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      try {
        want[i] = warm != nullptr ? solvers[i].solve_warm(*warm)
                                  : solvers[i].solve();
        ++(want[i]->used_optimistic_init ? optimistic : solved);
      } catch (const Error& e) {
        want_error[i] = e.what();
        ++failed;
      }
    }

    for (const std::size_t width : widths_under_test()) {
      SCOPED_TRACE("width " + std::to_string(width));
      const std::vector<BatchOutcome> got =
          GangSolver::solve_batch(items, width);
      for (std::size_t i = 0; i < solvers.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        EXPECT_EQ(got[i].error, want_error[i]);
        if (want[i]) expect_identical(got[i].report, *want[i]);
      }
    }
  }
  EXPECT_GT(solved, 0);
  EXPECT_GT(optimistic, 0);
  EXPECT_GT(failed, 0);
}

// Items with different batch keys in one call: each group solves on its
// own lock-step and every outcome still lands at its item's index.
TEST(GangBatchEquivalence, MixedOptionGroups) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const std::vector<SystemParams> systems = lane_systems(knobs, 4);
  GangSolveOptions default_opts;
  GangSolveOptions tight_opts;
  tight_opts.tol = 1e-7;
  std::vector<GangSolver> solvers;
  for (std::size_t i = 0; i < systems.size(); ++i)
    solvers.emplace_back(systems[i], i % 2 == 0 ? default_opts : tight_opts);
  EXPECT_NE(solvers[0].batch_key(), solvers[1].batch_key());
  EXPECT_EQ(solvers[0].batch_key(), solvers[2].batch_key());

  std::vector<BatchItem> items;
  for (const GangSolver& s : solvers) items.push_back({&s, nullptr});
  const std::vector<BatchOutcome> got = GangSolver::solve_batch(items, 8);
  for (std::size_t i = 0; i < solvers.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    ASSERT_TRUE(got[i].error.empty()) << got[i].error;
    expect_identical(got[i].report, solvers[i].solve());
  }
}

// An unstable lane reports the scalar solve's exact error and never
// disturbs the healthy lanes it shared a chunk with.
TEST(GangBatchEquivalence, UnstableLaneFallsBackWithScalarError) {
  workload::PaperKnobs stable_knobs;
  stable_knobs.arrival_rate = 0.4;
  workload::PaperKnobs unstable_knobs;
  unstable_knobs.arrival_rate = 5.0;  // utilization >= 1
  const SystemParams stable = workload::paper_system(stable_knobs);
  const SystemParams unstable = workload::paper_system(unstable_knobs);
  const GangSolver ok_solver(stable);
  const GangSolver bad_solver(unstable);

  std::string scalar_error;
  try {
    bad_solver.solve();
    FAIL() << "unstable system should not solve";
  } catch (const Error& e) {
    scalar_error = e.what();
  }

  const std::vector<BatchOutcome> got = GangSolver::solve_batch(
      {{&ok_solver, nullptr}, {&bad_solver, nullptr}}, 8);
  ASSERT_TRUE(got[0].error.empty()) << got[0].error;
  expect_identical(got[0].report, ok_solver.solve());
  EXPECT_EQ(got[1].error, scalar_error);
  EXPECT_FALSE(got[1].batched);
}

}  // namespace
