// End-to-end bitwise equivalence of the tiled-GEMM kernels across the
// paper's experimental configurations (Figures 2-5): toggling
// RSolveOptions::tiled must not move a single bit of any reported
// number, sequentially or with the per-class solves on threads.
#include <gtest/gtest.h>

#include <string>

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

// One baseline solve per configuration (defaults: tiled on), compared
// against the tiled-off solve.
void check_system(const SystemParams& sys, const std::string& name) {
  SCOPED_TRACE(name);
  const SolveReport base = GangSolver(sys, GangSolveOptions{}).solve();
  GangSolveOptions untiled;
  untiled.qbd.r_options.tiled = false;
  expect_identical(base, GangSolver(sys, untiled).solve());
}

TEST(GangTiledEquivalence, Figure2LightLoad) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  check_system(workload::paper_system(knobs), "figure2");
}

TEST(GangTiledEquivalence, Figure3HeavyLoad) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.9;
  check_system(workload::paper_system(knobs), "figure3");
}

TEST(GangTiledEquivalence, Figure4UniformService) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.5;
  knobs.uniform_service_rate = 2.0;
  check_system(workload::paper_system(knobs), "figure4");
}

TEST(GangTiledEquivalence, Figure5FavoredClass) {
  check_system(workload::figure5_system(/*favored=*/1, /*fraction=*/0.4),
               "figure5");
}

// Threads only change where the per-class solves run: the threaded
// solve matches the sequential one, with the tiled kernels on or off.
TEST(GangTiledEquivalence, ThreadedSolveUnaffectedByTiling) {
  workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const SystemParams sys = workload::paper_system(knobs);
  GangSolveOptions threaded;
  threaded.num_threads = 2;
  GangSolveOptions threaded_untiled = threaded;
  threaded_untiled.qbd.r_options.tiled = false;
  expect_identical(GangSolver(sys, threaded).solve(),
                   GangSolver(sys, threaded_untiled).solve());
  expect_identical(GangSolver(sys, threaded).solve(),
                   GangSolver(sys, GangSolveOptions{}).solve());
}

}  // namespace
