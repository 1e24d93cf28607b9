// Structural tests of the per-class QBD construction (Figure 1
// generalized): state-space sizes, irreducibility (Section 4.4), and the
// special level-0 dynamics. Successful construction already certifies the
// generator row sums (QbdProcess validates them).
#include "gang/class_process.hpp"

#include <gtest/gtest.h>

#include "gang/away_period.hpp"
#include "gang_test_util.hpp"
#include "phase/builders.hpp"
#include "phase/fitting.hpp"
#include "qbd/solver.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"

namespace {

using namespace gs::gang;
namespace gt = gs::gang::testing;

ClassProcess make(const SystemParams& sys, std::size_t p) {
  return ClassProcess(sys, p, away_period_heavy_traffic(sys, p));
}

TEST(ClassProcess, Figure1Dimensions) {
  // Figure 1's setting: Poisson arrivals (m_A = 1), exponential service
  // (m_B = 1), one-phase overhead, K-stage Erlang quantum. For the paper
  // system with K = 2: away order 10, so W = 12 cycle phases.
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  const ClassProcess cp = make(sys, 0);
  EXPECT_EQ(cp.partitions(), 8u);
  EXPECT_EQ(cp.serving_phases(), 2u);
  EXPECT_EQ(cp.away_phases(), 10u);
  EXPECT_EQ(cp.level_dim(0), 10u);   // away phases only
  for (std::size_t i = 1; i <= 9; ++i)
    EXPECT_EQ(cp.level_dim(i), 12u) << "level " << i;
  // Boundary: levels 0..7 interior, level 8 repeating template.
  EXPECT_EQ(cp.process().boundary_levels(), 8u);
  EXPECT_EQ(cp.process().boundary_size(), 10u + 7u * 12u);
  EXPECT_EQ(cp.process().repeating_size(), 12u);
}

TEST(ClassProcess, WholeMachineClassHasSingleBoundaryLevel) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  const ClassProcess cp = make(sys, 3);  // g = 8 -> c = 1
  EXPECT_EQ(cp.partitions(), 1u);
  EXPECT_EQ(cp.process().boundary_levels(), 1u);
  EXPECT_EQ(cp.process().boundary_size(), cp.level_dim(0));
}

TEST(ClassProcess, IrreducibleForAllPaperClasses) {
  const SystemParams sys = gt::paper_system(0.4, 1.0);
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_TRUE(make(sys, p).process().is_irreducible()) << "class " << p;
}

TEST(ClassProcess, PhaseTypeServiceGrowsConfigSpace) {
  // Two-phase (Erlang-2) service on c = 2 partitions: configs(2) has 3
  // elements, configs(1) has 2.
  ClassParams c{gs::phase::exponential(0.3), gs::phase::erlang(2, 1.0),
                gs::phase::erlang(2, 1.0), gs::phase::exponential(100.0), 2,
                ""};
  const SystemParams sys(4, {c});
  const ClassProcess cp = make(sys, 0);
  const std::size_t w = cp.serving_phases() + cp.away_phases();
  EXPECT_EQ(cp.level_dim(1), 2u * w);
  EXPECT_EQ(cp.level_dim(2), 3u * w);
  EXPECT_TRUE(cp.process().is_irreducible());
  // And it solves.
  EXPECT_NO_THROW(gs::qbd::solve(cp.process()));
}

TEST(ClassProcess, PhaseTypeArrivalsSupported) {
  ClassParams c{gs::phase::erlang(3, 2.0), gs::phase::exponential(1.0),
                gs::phase::erlang(2, 1.0), gs::phase::exponential(100.0), 2,
                ""};
  const SystemParams sys(2, {c});
  const ClassProcess cp = make(sys, 0);
  EXPECT_EQ(cp.level_dim(0), 3u * 1u);  // m_A * away order
  EXPECT_TRUE(cp.process().is_irreducible());
  EXPECT_NO_THROW(gs::qbd::solve(cp.process()));
}

TEST(ClassProcess, DriftStableMatchesLoad) {
  // Very light load: stable. Arrival faster than the machine can absorb
  // even at full dedication: unstable.
  const SystemParams light = gt::single_class_whole_machine(0.2, 1.0);
  EXPECT_TRUE(make(light, 0).process().drift().stable);
  const SystemParams heavy = gt::single_class_whole_machine(1.4, 1.0);
  EXPECT_FALSE(make(heavy, 0).process().drift().stable);
}

TEST(ClassProcess, ServingFractionBoundedByCycleShare) {
  // With equal quanta and tiny overheads, each of the two classes can hold
  // the processors at most ~half the time.
  const SystemParams sys = gt::two_class_small(0.35, 0.35);
  for (std::size_t p = 0; p < 2; ++p) {
    const ClassProcess cp = make(sys, p);
    const auto sol = gs::qbd::solve(cp.process());
    const double f = cp.serving_time_fraction(sol);
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 0.75);
  }
}

TEST(ClassProcess, RejectsDefectiveAwayPeriod) {
  const SystemParams sys = gt::two_class_small();
  const auto defective =
      gs::phase::with_atom(gs::phase::exponential(1.0), 0.1);
  EXPECT_THROW(ClassProcess(sys, 0, defective), gs::InvalidArgument);
}

// The revalue path: rebuilding a ClassProcess's blocks into the staged
// workspace and revaluing the live QbdProcess must leave exactly the
// blocks a from-scratch construction produces.
TEST(ClassProcess, UpdateAwayMatchesFreshBuild) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const SystemParams sys = gs::workload::paper_system(knobs);

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

    gs::qbd::Workspace ws;
    ClassProcess reused(sys, p, away0, &ws);
    reused.update_away(away1);  // same shapes: exercises revalue
    const ClassProcess fresh(sys, p, away1);

    const gs::qbd::QbdBlocks& a = reused.process().blocks();
    const gs::qbd::QbdBlocks& b = fresh.process().blocks();
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
