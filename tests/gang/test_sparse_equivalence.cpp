// End-to-end bitwise equivalence of the sparse QBD kernels across the
// paper's experimental configurations (Figures 2-5): toggling
// RSolveOptions::sparse must not move a single bit of any reported
// number, and the fixed point's in-place revalue path must agree exactly
// with building every per-class chain from scratch.
#include <gtest/gtest.h>

#include <string>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "workload/paper_configs.hpp"

namespace {

using namespace gs;
using namespace gs::gang;

void expect_identical(const SolveReport& a, const SolveReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_delta, b.final_delta);
  EXPECT_EQ(a.mean_cycle_length, b.mean_cycle_length);
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
  }
}

void check_system(const SystemParams& sys, const std::string& name) {
  SCOPED_TRACE(name);
  GangSolveOptions sparse;
  sparse.qbd.r_options.sparse = true;
  GangSolveOptions dense = sparse;
  dense.qbd.r_options.sparse = false;
  expect_identical(GangSolver(sys, sparse).solve(),
                   GangSolver(sys, dense).solve());
}

TEST(GangSparseEquivalence, Figure2LightLoad) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  check_system(workload::paper_system(knobs), "figure2");
}

TEST(GangSparseEquivalence, Figure3HeavyLoad) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.9;
  check_system(workload::paper_system(knobs), "figure3");
}

TEST(GangSparseEquivalence, Figure4UniformService) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.5;
  knobs.uniform_service_rate = 2.0;
  check_system(workload::paper_system(knobs), "figure4");
}

TEST(GangSparseEquivalence, Figure5FavoredClass) {
  check_system(workload::figure5_system(/*favored=*/1, /*fraction=*/0.4),
               "figure5");
}

// The revalue path: rebuilding a ClassProcess's blocks into the staged
// workspace and revaluing the live QbdProcess must leave exactly the
// blocks a from-scratch construction produces.
TEST(GangSparseEquivalence, UpdateAwayMatchesFreshBuild) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const SystemParams sys = workload::paper_system(knobs);

  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    const PhaseType away0 = away_period_heavy_traffic(sys, p);
    // A second away period with the same order but different rates: scale
    // every class's quantum mean through the slice list.
    std::vector<PhaseType> slices;
    for (std::size_t q = 0; q < sys.num_classes(); ++q)
      slices.push_back(sys.cls(q).quantum.scaled(1.7));
    const PhaseType away1 = away_period(sys, p, slices);
    ASSERT_EQ(away0.order(), away1.order());

    qbd::Workspace ws;
    ClassProcess reused(sys, p, away0, &ws);
    reused.update_away(away1);  // same shapes: exercises revalue
    const ClassProcess fresh(sys, p, away1);

    const qbd::QbdBlocks& a = reused.process().blocks();
    const qbd::QbdBlocks& b = fresh.process().blocks();
    ASSERT_EQ(a.diag.size(), b.diag.size());
    for (std::size_t i = 0; i < a.diag.size(); ++i) {
      EXPECT_EQ(gs::linalg::max_abs_diff(a.diag[i], b.diag[i]), 0.0);
      EXPECT_EQ(gs::linalg::max_abs_diff(a.up[i], b.up[i]), 0.0);
      EXPECT_EQ(gs::linalg::max_abs_diff(a.down[i], b.down[i]), 0.0);
    }
    EXPECT_EQ(gs::linalg::max_abs_diff(a.b11, b.b11), 0.0);
    EXPECT_EQ(gs::linalg::max_abs_diff(a.a0, b.a0), 0.0);
    EXPECT_EQ(gs::linalg::max_abs_diff(a.a1, b.a1), 0.0);
    EXPECT_EQ(gs::linalg::max_abs_diff(a.a2, b.a2), 0.0);
  }
}

}  // namespace
