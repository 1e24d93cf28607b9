// The full QBD solution on Newton's R must match the one built on the
// full-width log-reduction oracle's R (full_width_logreduction_oracle.hpp):
// R and G within 1e-13 relative, and every reported number of the
// solution — spectral radius, boundary levels, moments — within 1e-11
// relative. RMatrixCompact pins R and G on more chains; these tests carry
// the comparison through the boundary and the moments, on the reference
// queues, on the class chains at the gang fixed point of the paper's
// Figure 2-5 systems, and with the class chains solved on threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

// max|a - b| relative to max|b| (0 when both vanish).
double rel_diff(const Matrix& a, const Matrix& b) {
  const double diff = gs::linalg::max_abs_diff(a, b);
  return diff == 0.0 ? 0.0 : diff / b.max_abs();
}

double rel_diff(const Vector& a, const Vector& b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(b[i]));
  }
  return diff == 0.0 ? 0.0 : diff / scale;
}

double rel_diff(double a, double b) {
  return a == b ? 0.0 : std::fabs(a - b) / std::fabs(b);
}

constexpr double kOracleRel = 1e-13;
constexpr double kSolutionRel = 1e-11;

// Newton's R solve and the QBD solution built on it, against the
// full-width oracle's R and the solution built on that.
void check_process(const QbdProcess& proc, Workspace& ws) {
  const QbdBlocks& blk = proc.blocks();
  ws.warm = false;
  const RSolveResult newton = solve_r(blk.a0, blk.a1, blk.a2, {}, &ws);
  const RSolveResult oracle =
      qt::full_width_logreduction(blk.a0, blk.a1, blk.a2);
  EXPECT_LE(rel_diff(newton.r, oracle.r), kOracleRel);
  EXPECT_LE(rel_diff(newton.g, oracle.g), kOracleRel);

  const QbdSolution a = solve(proc, {}, &ws);
  const QbdSolution b = solve_with_r(proc, oracle.r);
  EXPECT_LE(rel_diff(a.spectral_radius_r(), b.spectral_radius_r()),
            kSolutionRel);
  ASSERT_EQ(a.boundary_levels(), b.boundary_levels());
  for (std::size_t i = 0; i < a.boundary_levels(); ++i)
    EXPECT_LE(rel_diff(a.boundary_level(i), b.boundary_level(i)),
              kSolutionRel)
        << "boundary level " << i;
  EXPECT_LE(rel_diff(a.mean_level(), b.mean_level()), kSolutionRel);
  EXPECT_LE(rel_diff(a.second_moment_level(), b.second_moment_level()),
            kSolutionRel);
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

// Each solve keeps its Newton iterate in its own Workspace: the class
// chains solved on two threads at once match the oracle, and the gang
// solve with its per-class solves on threads reports the sequential
// solve's numbers bit for bit.
TEST(GangTiledEquivalence, ThreadedSolveUnaffectedByTiling) {
  const SystemParams sys = figure2_system();
  std::vector<Matrix> oracle_r;
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    const ClassProcess cp(sys, p, gs::gang::away_period_heavy_traffic(sys, p));
    const QbdBlocks& blk = cp.process().blocks();
    oracle_r.push_back(qt::full_width_logreduction(blk.a0, blk.a1, blk.a2).r);
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
        out.push_back(solve_r(blk.a0, blk.a1, blk.a2, {}, &ws).r);
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& out : threaded_r) {
    ASSERT_EQ(out.size(), oracle_r.size());
    for (std::size_t p = 0; p < out.size(); ++p)
      EXPECT_LE(rel_diff(out[p], oracle_r[p]), kOracleRel) << "class " << p;
  }
  EXPECT_EQ(gs::linalg::max_abs_diff(threaded_r[0][0], threaded_r[1][0]),
            0.0);

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
