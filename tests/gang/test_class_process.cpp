// Structural tests of the per-class QBD construction (Figure 1
// generalized): state-space sizes, irreducibility (Section 4.4), and the
// special level-0 dynamics. Successful construction already certifies the
// generator row sums (QbdProcess validates them).
#include "gang/class_process.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gang/away_period.hpp"
#include "gang_test_util.hpp"
#include "obs/obs.hpp"
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

// Blocks equal bit for bit: shapes, then memcmp of every block (a
// max_abs_diff of 0 cannot tell +0.0 from -0.0).
void expect_same_bits(const gs::qbd::QbdBlocks& a, const gs::qbd::QbdBlocks& b) {
  const auto same = [](const gs::linalg::Matrix& x,
                       const gs::linalg::Matrix& y) {
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(),
                       x.rows() * x.cols() * sizeof(double)) == 0;
  };
  ASSERT_EQ(a.diag.size(), b.diag.size());
  ASSERT_EQ(a.up.size(), b.up.size());
  ASSERT_EQ(a.down.size(), b.down.size());
  for (std::size_t i = 0; i < a.diag.size(); ++i) {
    EXPECT_TRUE(same(a.diag[i], b.diag[i])) << "D_" << i;
    EXPECT_TRUE(same(a.up[i], b.up[i])) << "U_" << i;
    EXPECT_TRUE(same(a.down[i], b.down[i])) << "L_" << i;
  }
  EXPECT_TRUE(same(a.b11, b.b11)) << "B11";
  EXPECT_TRUE(same(a.a0, b.a0)) << "A0";
  EXPECT_TRUE(same(a.a1, b.a1)) << "A1";
  EXPECT_TRUE(same(a.a2, b.a2)) << "A2";
}

// Chains whose rates are accumulated in an order that matters: the
// paper's (Poisson arrivals, exponential service), PH arrivals (m_A > 1),
// and Erlang-2 and H2 service on several partitions (more than one
// service configuration per level, several transitions into one cell).
std::vector<SystemParams> replay_systems() {
  using namespace gs::phase;
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const ClassParams other{exponential(0.3), exponential(2.0), erlang(2, 1.0),
                          exponential(100.0), 4, "other"};
  return {
      gs::workload::paper_system(knobs),
      SystemParams(4, {ClassParams{erlang(3, 2.0), exponential(1.0),
                                   erlang(2, 1.0), exponential(100.0), 2,
                                   "ph-arrivals"},
                       other}),
      SystemParams(4, {ClassParams{exponential(0.3), erlang(2, 1.0),
                                   erlang(2, 1.0), exponential(100.0), 1,
                                   "erlang-service"},
                       other}),
      SystemParams(4, {ClassParams{erlang(2, 3.0),
                                   hyperexponential({0.3, 0.7}, {0.5, 3.0}),
                                   erlang(3, 1.5), exponential(50.0), 2,
                                   "h2-service"},
                       other}),
  };
}

// The away period class p sees when every other class's slice is its
// quantum scaled by `scale` (same order, different rates), or, with
// `exponential_slices`, an exponential of that mean (a lower order).
PhaseType scaled_away(const SystemParams& sys, std::size_t p, double scale,
                      bool exponential_slices = false) {
  std::vector<PhaseType> slices;
  for (std::size_t q = 0; q < sys.num_classes(); ++q) {
    const PhaseType& quantum = sys.cls(q).quantum;
    slices.push_back(exponential_slices
                         ? gs::phase::exponential(1.0 /
                                                  (scale * quantum.mean()))
                         : quantum.scaled(scale));
  }
  return away_period(sys, p, slices);
}

// The same away order with more nonzero rates: every other class's slice
// a two-phase hyperexponential (order 2, like the Erlang-2 quanta, but
// both phases exit and both can start) with `scale` times its quantum's
// mean.
PhaseType h2_away(const SystemParams& sys, std::size_t p, double scale) {
  std::vector<PhaseType> slices;
  for (std::size_t q = 0; q < sys.num_classes(); ++q) {
    const PhaseType h2 = gs::phase::hyperexponential({0.4, 0.6}, {0.5, 3.0});
    slices.push_back(h2.scaled(scale * sys.cls(q).quantum.mean() / h2.mean()));
  }
  return away_period(sys, p, slices);
}

// The revalue path: replaying the compiled chain for 20 successive away
// periods of one order must leave, after every step, exactly the blocks
// the reference assembly (build) and a from-scratch construction give.
TEST(ClassProcess, UpdateAwayMatchesFreshBuild) {
  for (const SystemParams& sys : replay_systems()) {
    for (std::size_t p = 0; p < sys.num_classes(); ++p) {
      SCOPED_TRACE(sys.cls(p).name + ", class " + std::to_string(p));
      gs::qbd::Workspace ws;
      ClassProcess reused(sys, p, scaled_away(sys, p, 1.0), &ws);
      expect_same_bits(reused.process().blocks(), reused.build());
      const std::size_t order = reused.away_phases();
      for (int step = 1; step < 20; ++step) {
        const PhaseType away = scaled_away(sys, p, 1.0 + 0.07 * step);
        ASSERT_EQ(away.order(), order);
        reused.update_away(away);
        expect_same_bits(reused.process().blocks(), reused.build());
        const ClassProcess fresh(sys, p, away);
        expect_same_bits(reused.process().blocks(), fresh.process().blocks());
      }
    }
  }
}

// A changed away order switches programs: an order's first away period
// is assembled directly, its program is compiled at its second, and
// moving back to an order later reuses that program.
TEST(ClassProcess, UpdateAwayKeepsTheProgramOfEachAwayOrder) {
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  const auto compiled = [] {
    return gs::obs::snapshot().counter_value("gang.revalue.compiled");
  };
  for (const SystemParams& sys : replay_systems()) {
    SCOPED_TRACE(sys.cls(0).name);
    gs::obs::reset();
    ClassProcess cp(sys, 0, scaled_away(sys, 0, 1.0));
    const std::size_t high = cp.away_phases();
    EXPECT_EQ(compiled(), 0u);
    for (int step = 1; step <= 6; ++step) {
      const bool low = step % 2 == 1;
      cp.update_away(scaled_away(sys, 0, 1.0 + 0.1 * step, low));
      EXPECT_EQ(cp.away_phases() < high, low);
      expect_same_bits(cp.process().blocks(), cp.build());
      EXPECT_NO_THROW(gs::qbd::solve(cp.process()));
    }
    // Down, up, down, up, down, up: two orders, two compilations.
    EXPECT_EQ(compiled(), 2u);
  }
  gs::obs::configure({});
}

// An away period of a compiled order with a rate the program skipped
// (zero until now) recompiles the order for both supports; the wider
// program then serves both kinds of away period.
TEST(ClassProcess, UpdateAwayRecompilesForANewNonzeroRate) {
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  const auto compiled = [] {
    return gs::obs::snapshot().counter_value("gang.revalue.compiled");
  };
  for (const SystemParams& sys : replay_systems()) {
    SCOPED_TRACE(sys.cls(0).name);
    gs::obs::reset();
    ClassProcess cp(sys, 0, scaled_away(sys, 0, 1.0));
    const std::size_t order = cp.away_phases();
    const std::uint64_t expected[] = {1, 2, 2, 2, 2};
    for (int step = 1; step <= 5; ++step) {
      const bool h2 = step % 2 == 0;
      const double scale = 1.0 + 0.1 * step;
      cp.update_away(h2 ? h2_away(sys, 0, scale) : scaled_away(sys, 0, scale));
      ASSERT_EQ(cp.away_phases(), order);
      EXPECT_EQ(compiled(), expected[step - 1]) << "step " << step;
      expect_same_bits(cp.process().blocks(), cp.build());
      EXPECT_NO_THROW(gs::qbd::solve(cp.process()));
    }
  }
  gs::obs::configure({});
}

}  // namespace
