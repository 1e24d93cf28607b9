// The tiled kernels must be invisible in the numbers: the solver's R
// solve runs its squaring loop through the packed tiled GEMM and the
// blocked Lu::solve_into, and every reported number of the full QBD
// solution must carry the bits that the untiled arithmetic gives — plain
// multiply_into products and per-column solves on full-width iterates
// (full_width_logreduction_oracle.hpp). RMatrixCompact pins R and G; these
// tests carry the comparison through the boundary and the moments, on the
// reference queues, on the class chains at the gang fixed point of the
// paper's Figure 2-5 systems, and with the class chains solved on
// threads.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "full_width_logreduction_oracle.hpp"
#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "workload/paper_configs.hpp"

namespace {

using namespace gs::qbd;
using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Matrix;
using gs::linalg::Vector;
namespace qt = gs::qbd::testing;

// Every bit equal (memcmp, so signed zeros count).
bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bits(a.data(), b.data(), a.rows() * a.cols());
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

// The tiled R solve and the QBD solution built on it, against the
// untiled full-width R and the solution built on that.
void check_process(const QbdProcess& proc, Workspace& ws) {
  const QbdBlocks& blk = proc.blocks();
  const RSolveResult tiled =
      solve_r_logreduction(blk.a0, blk.a1, blk.a2, {}, &ws);
  const RSolveResult untiled =
      qt::full_width_logreduction(blk.a0, blk.a1, blk.a2);
  EXPECT_EQ(tiled.iterations, untiled.iterations);
  EXPECT_EQ(tiled.residual, untiled.residual);
  EXPECT_TRUE(same_bits(tiled.r, untiled.r));
  EXPECT_TRUE(same_bits(tiled.g, untiled.g));

  const QbdSolution a = solve(proc, {}, &ws);
  const QbdSolution b = solve_with_r(proc, untiled.r);
  EXPECT_EQ(a.spectral_radius_r(), b.spectral_radius_r());
  EXPECT_TRUE(same_bits(a.r(), b.r()));
  ASSERT_EQ(a.boundary_levels(), b.boundary_levels());
  for (std::size_t i = 0; i < a.boundary_levels(); ++i)
    EXPECT_TRUE(same_bits(a.boundary_level(i), b.boundary_level(i)))
        << "boundary level " << i;
  EXPECT_EQ(a.mean_level(), b.mean_level());
  EXPECT_EQ(a.second_moment_level(), b.second_moment_level());
}

// Each class chain as the gang solve leaves it: against the away period
// its fixed point's slices give.
void check_system(const SystemParams& sys) {
  const gs::gang::SolveReport rep = gs::gang::GangSolver(sys).solve();
  Workspace ws;
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    const ClassProcess cp(sys, p,
                          gs::gang::away_period(sys, p, rep.final_slices));
    check_process(cp.process(), ws);
  }
}

SystemParams figure2_system() {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  return gs::workload::paper_system(knobs);
}

TEST(TiledEquivalence, Mm1) {
  Workspace ws;
  check_process(qt::mm1(0.6, 1.0), ws);
}

TEST(TiledEquivalence, Mmc) {
  Workspace ws;
  check_process(qt::mmc(2.1, 1.0, 3), ws);
}

TEST(TiledEquivalence, Me21) {
  Workspace ws;
  check_process(qt::me21(0.7, 1.0), ws);
}

TEST(GangTiledEquivalence, Figure2LightLoad) { check_system(figure2_system()); }

TEST(GangTiledEquivalence, Figure3HeavyLoad) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.9;
  check_system(gs::workload::paper_system(knobs));
}

TEST(GangTiledEquivalence, Figure4UniformService) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.5;
  knobs.uniform_service_rate = 2.0;
  check_system(gs::workload::paper_system(knobs));
}

TEST(GangTiledEquivalence, Figure5FavoredClass) {
  check_system(gs::workload::figure5_system(/*favored=*/1, /*fraction=*/0.4));
}

// Each solve packs its GEMM operands into its own Workspace: the class
// chains solved on two threads at once carry the untiled bits, and the
// gang solve with its per-class solves on threads reports the
// sequential solve's numbers.
TEST(GangTiledEquivalence, ThreadedSolveUnaffectedByTiling) {
  const SystemParams sys = figure2_system();
  std::vector<Matrix> untiled_r;
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    const ClassProcess cp(sys, p, gs::gang::away_period_heavy_traffic(sys, p));
    const QbdBlocks& blk = cp.process().blocks();
    untiled_r.push_back(
        qt::full_width_logreduction(blk.a0, blk.a1, blk.a2).r);
  }
  std::vector<Matrix> threaded_r[2];
  std::vector<std::thread> threads;
  for (auto& out : threaded_r)
    threads.emplace_back([&sys, &out] {
      Workspace ws;
      for (std::size_t p = 0; p < sys.num_classes(); ++p) {
        const ClassProcess cp(sys, p,
                              gs::gang::away_period_heavy_traffic(sys, p));
        const QbdBlocks& blk = cp.process().blocks();
        out.push_back(
            solve_r_logreduction(blk.a0, blk.a1, blk.a2, {}, &ws).r);
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& out : threaded_r) {
    ASSERT_EQ(out.size(), untiled_r.size());
    for (std::size_t p = 0; p < out.size(); ++p)
      EXPECT_TRUE(same_bits(out[p], untiled_r[p])) << "class " << p;
  }

  gs::gang::GangSolveOptions threaded;
  threaded.num_threads = 2;
  const gs::gang::SolveReport a = gs::gang::GangSolver(sys, threaded).solve();
  const gs::gang::SolveReport b = gs::gang::GangSolver(sys, {}).solve();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.final_delta, b.final_delta);
  EXPECT_EQ(a.mean_cycle_length, b.mean_cycle_length);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t p = 0; p < a.per_class.size(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    EXPECT_EQ(a.per_class[p].mean_jobs, b.per_class[p].mean_jobs);
    EXPECT_EQ(a.per_class[p].var_jobs, b.per_class[p].var_jobs);
    EXPECT_EQ(a.per_class[p].response_time, b.per_class[p].response_time);
    EXPECT_EQ(a.per_class[p].sp_r, b.per_class[p].sp_r);
  }
}

}  // namespace
