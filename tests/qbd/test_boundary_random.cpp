// Randomized cross-check of the boundary stage. qbd::solve_with_r solves
// the boundary levels by linear level reduction; the dense balance LU it
// replaced stays here as the oracle (dense_boundary_oracle.hpp). Per-class
// chains of random gang-scheduled systems (random phase-type orders, P
// not a power of two, up to 16 boundary-interior levels, loads up to a
// few percent inside the Theorem 4.4 drift boundary) and the small
// reference queues must give the same boundary vectors and mean level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "dense_boundary_oracle.hpp"
#include "linalg/gth.hpp"
#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"
#include "random_systems.hpp"
#include "util/error.hpp"

namespace {

using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Matrix;
using gs::linalg::Vector;
using gs::qbd::QbdBlocks;
using gs::qbd::QbdProcess;
using gs::qbd::QbdSolution;
namespace qt = gs::qbd::testing;

constexpr double kRel = 1e-12;

// Largest |a - b| over every boundary entry, relative to the largest
// oracle entry. Partial-pivot LU bounds its error against the norm of the
// solution, not entry by entry: boundary probabilities far below the
// largest one carry the oracle's own round-off (MmcLevelsMatchClosedForm
// shows level reduction is the accurate side there), so the entries are
// compared normwise and the mean level relatively.
double boundary_error(const QbdSolution& sol, const std::vector<Vector>& ref) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const Vector& got = sol.boundary_level(i);
    EXPECT_EQ(got.size(), ref[i].size());
    for (std::size_t k = 0; k < ref[i].size(); ++k) {
      diff = std::max(diff, std::fabs(got[k] - ref[i][k]));
      scale = std::max(scale, std::fabs(ref[i][k]));
    }
  }
  return diff / scale;
}

double rel(double a, double b) {
  return std::fabs(a - b) / std::max(std::fabs(b), 1e-300);
}

// Solve `process` both ways with the same R and compare.
void expect_matches_oracle(const QbdProcess& process) {
  const auto& blk = process.blocks();
  const auto rres = gs::qbd::solve_r(blk.a0, blk.a1, blk.a2);
  const QbdSolution sol = gs::qbd::solve_with_r(process, rres.r);
  const std::vector<Vector> ref = qt::dense_boundary(process, rres.r);
  ASSERT_EQ(sol.boundary_levels(), ref.size());
  EXPECT_LE(boundary_error(sol, ref), kRel);
  const QbdSolution oracle(ref, rres.r);
  EXPECT_LE(rel(sol.mean_level(), oracle.mean_level()), kRel);
  EXPECT_NEAR(sol.total_mass(), 1.0, 1e-12);
}

TEST(BoundaryRandomized, LevelReductionMatchesDenseOracle) {
  gs::util::Rng rng(20261017);
  constexpr int kChains = 40;
  const qt::DrawShape shape{{6, 10, 12, 15, 48}, 16, 40};
  int chains = 0;
  int non_power_of_two = 0;
  int deep = 0;
  int heavy = 0;
  int order4 = 0;
  while (chains < kChains) {
    const qt::Draw draw = qt::random_system(rng, shape);
    const SystemParams& sys = draw.system;
    for (std::size_t p = 0; p < sys.num_classes() && chains < kChains; ++p) {
      if (draw.load[p] == 0.0) continue;
      const ClassProcess cp(sys, p,
                            gs::gang::away_period_heavy_traffic(sys, p));
      const auto& c = sys.cls(p);
      SCOPED_TRACE("chain " + std::to_string(chains) + ": P=" +
                   std::to_string(sys.processors()) + " p=" +
                   std::to_string(p) + " c=" + std::to_string(cp.partitions()) +
                   " orders " + std::to_string(c.arrival.order()) + "/" +
                   std::to_string(c.service.order()) + "/" +
                   std::to_string(c.quantum.order()) + " D=" +
                   std::to_string(cp.process().boundary_size()) + " d=" +
                   std::to_string(cp.process().repeating_size()) + " load " +
                   std::to_string(draw.load[p]));
      expect_matches_oracle(cp.process());

      ++chains;
      if ((sys.processors() & (sys.processors() - 1)) != 0) ++non_power_of_two;
      if (cp.partitions() >= 12) ++deep;
      if (draw.load[p] > 0.9) ++heavy;
      if (c.arrival.order() == 4 || c.service.order() == 4 ||
          c.quantum.order() == 4)
        ++order4;
    }
  }
  // The seed must actually reach the corners the draw is meant to cover.
  EXPECT_GT(non_power_of_two, 0);
  EXPECT_GT(deep, 0);
  EXPECT_GT(heavy, 0);
  EXPECT_GT(order4, 0);
}

TEST(BoundaryRandomized, ReferenceQueuesMatchDenseOracle) {
  for (double rho : {0.3, 0.7, 0.95}) {
    SCOPED_TRACE("rho " + std::to_string(rho));
    expect_matches_oracle(qt::mm1(rho, 1.0));
    expect_matches_oracle(qt::me21(rho, 1.0));
    for (std::size_t c : {1, 2, 5, 16})
      expect_matches_oracle(qt::mmc(rho * static_cast<double>(c), 1.0, c));
  }
}

// Light load: with lambda / mu = 1e-3 on P = 8 single-processor
// partitions, the last boundary level holds ~1e-29 of the mass, so the
// normalization weights of level b, which sum the mass of every level
// below it relative to level b's, reach ~1e28 next to O(1) rates. The
// top-level system must still solve and match the oracle, whose
// normalization row holds only ones and (I-R)^{-1} e. The mean level also
// checks that the interior pivots are taken from the exit rates: a
// partial-pivot LU of D_0 as stored, whose diagonal cancels against the
// off-diagonal rates down to lambda, came out 2.4e-12 off at 1e-3.
TEST(BoundaryRandomized, LightLoadMatchesDenseOracle) {
  for (double load : {1e-3, 1e-2}) {
    SCOPED_TRACE("lambda/mu " + std::to_string(load));
    const double mu = 1.0;
    std::vector<gs::gang::ClassParams> cls{
        {gs::phase::exponential(load * mu), gs::phase::erlang(2, 1.0 / mu),
         gs::phase::erlang(2, 1.0), gs::phase::exponential(100.0), 1,
         "light"}};
    const SystemParams sys(8, std::move(cls));
    const ClassProcess cp(sys, 0, gs::gang::away_period_heavy_traffic(sys, 0));
    ASSERT_EQ(cp.process().boundary_levels(), 8u);
    ASSERT_GT(cp.process().repeating_size(), 1u);
    expect_matches_oracle(cp.process());
  }
}

// Mean level of the chain truncated after `repeating` repeating levels,
// solved by GTH: subtraction-free, so every level keeps its relative
// accuracy however little mass it holds.
double truncated_gth_mean_level(const QbdProcess& p, std::size_t repeating) {
  const Vector pi = gs::linalg::gth_stationary(p.corner(repeating));
  double mean = 0.0;
  std::size_t off = 0;
  for (std::size_t lvl = 0; off < pi.size(); ++lvl) {
    const std::size_t dim = lvl < p.boundary_levels() ? p.level_dim(lvl)
                                                      : p.repeating_size();
    for (std::size_t k = 0; k < dim; ++k)
      mean += static_cast<double>(lvl) * pi[off + k];
    off += dim;
  }
  return mean;
}

// Light load behind Erlang-3 arrivals: only the last arrival phase exits
// a level upward, so each -S_i is close to singular in a way a pivoted LU
// cannot see. A partial-pivot LU of the S_i, even with their diagonals
// taken from the exit rates, rejected these valid chains as singular at
// lambda / mu = 1e-4 and below. The dense oracle solves them but its mean
// level drifts (1.4e-11 relative at 1e-4, 2e-9 at 1e-6), so the reference
// is GTH on the truncated chain, whose tail beyond three repeating levels
// is negligible at these loads.
TEST(BoundaryRandomized, LightLoadErlangArrivalsMatchTruncatedGth) {
  for (double load : {1e-6, 1e-4, 1e-2}) {
    SCOPED_TRACE("lambda/mu " + std::to_string(load));
    std::vector<gs::gang::ClassParams> cls{
        {gs::phase::erlang(3, 1.0 / load), gs::phase::erlang(2, 1.0),
         gs::phase::erlang(2, 1.0), gs::phase::exponential(100.0), 1,
         "light"}};
    const SystemParams sys(8, std::move(cls));
    const ClassProcess cp(sys, 0, gs::gang::away_period_heavy_traffic(sys, 0));
    const QbdProcess& proc = cp.process();
    const QbdSolution sol = gs::qbd::solve(proc);
    EXPECT_NEAR(sol.total_mass(), 1.0, 1e-12);
    EXPECT_LE(rel(sol.mean_level(), truncated_gth_mean_level(proc, 3)), kRel);
  }
}

// M/M/c has the closed form pi_i ~ a^i / i! (a = lambda/mu) up to level
// c. Level reduction keeps every level's relative accuracy even where
// the probabilities are tiny; the dense oracle does not (at c = 40,
// rho = 0.95 its pi_0 ~ 1.7e-17 is off by a factor of four).
TEST(BoundaryRandomized, MmcLevelsMatchClosedForm) {
  for (std::size_t c : {2, 5, 16, 40})
    for (double rho : {0.3, 0.95}) {
      SCOPED_TRACE("c " + std::to_string(c) + " rho " + std::to_string(rho));
      const double a = rho * static_cast<double>(c);
      const QbdProcess p = qt::mmc(a, 1.0, c);
      const QbdSolution sol = gs::qbd::solve(p);
      std::vector<long double> w(c + 1);
      long double term = 1.0L;
      long double total = 0.0L;
      for (std::size_t i = 0; i <= c; ++i) {
        w[i] = term;
        total += i < c ? term : term / (1.0L - rho);
        term *= a / static_cast<long double>(i + 1);
      }
      for (std::size_t i = 0; i <= c; ++i) {
        const double exact = static_cast<double>(w[i] / total);
        EXPECT_LE(rel(sol.boundary_level(i)[0], exact), 1e-12) << "level " << i;
      }
    }
}

// Two phase lanes that never communicate, behind one boundary-interior
// level: the balance system has a two-dimensional null space.
QbdProcess two_lanes() {
  QbdBlocks blk;
  blk.diag = {Matrix{{-1.0, 0.0}, {0.0, -1.0}}};
  blk.up = {Matrix::identity(2)};
  blk.down = {2.0 * Matrix::identity(2)};
  blk.b11 = Matrix{{-3.0, 0.0}, {0.0, -3.0}};
  blk.a0 = Matrix::identity(2);
  blk.a1 = Matrix{{-3.0, 0.0}, {0.0, -3.0}};
  blk.a2 = 2.0 * Matrix::identity(2);
  return QbdProcess(std::move(blk));
}

std::string error_text(const std::function<void()>& f) {
  try {
    f();
  } catch (const gs::NumericalError& e) {
    return e.what();
  }
  return "";
}

TEST(BoundaryRandomized, ReducibleChainThrowsTheOracleError) {
  const QbdProcess p = two_lanes();
  ASSERT_FALSE(p.is_irreducible());
  const auto& blk = p.blocks();
  const Matrix r = gs::qbd::solve_r(blk.a0, blk.a1, blk.a2).r;
  const std::string got = error_text([&] { gs::qbd::solve_with_r(p, r); });
  const std::string want = error_text([&] { qt::dense_boundary(p, r); });
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

}  // namespace
