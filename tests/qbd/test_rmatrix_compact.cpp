// The Newton solver carries G on A2's nonzero columns only (every other
// column of G is exactly zero). Logarithmic reduction on full-width
// iterates stays as its oracle (full_width_logreduction_oracle.hpp): on
// random gang class chains with A2 masked to random column subsets (one
// live column, every column, none), dense random chains (r = d), the
// reference queues, the class chains of the paper's Figure 2-5 systems,
// random systems near the Theorem 4.4 drift boundary and a d = 128
// chain, both must succeed or fail together, with R and G within 1e-13
// of each other relative to the oracle's largest entry; and R must agree
// with the successive-substitution oracle. A warm start from a poisoned
// X must reach the same G or take the counted cold fallback.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "full_width_logreduction_oracle.hpp"
#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "obs/obs.hpp"
#include "phase/builders.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd_test_util.hpp"
#include "random_systems.hpp"
#include "substitution_oracle.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"

namespace {

using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Matrix;
using gs::qbd::RSolveResult;
namespace qt = gs::qbd::testing;

// max|a - b| relative to max|b| (0 when both vanish).
double rel_diff(const Matrix& a, const Matrix& b) {
  const double scale = b.max_abs();
  const double diff = gs::linalg::max_abs_diff(a, b);
  return diff == 0.0 ? 0.0 : diff / scale;
}

constexpr double kOracleRel = 1e-13;

std::vector<std::size_t> nonzero_columns(const Matrix& a) {
  std::vector<std::size_t> cols;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      if (a(i, j) != 0.0) {
        cols.push_back(j);
        break;
      }
  return cols;
}

// A2 with every column outside `keep` zeroed.
Matrix mask_columns(const Matrix& a2, const std::vector<std::size_t>& keep) {
  Matrix out(a2.rows(), a2.cols());
  for (std::size_t j : keep)
    for (std::size_t i = 0; i < a2.rows(); ++i) out(i, j) = a2(i, j);
  return out;
}

struct Outcome {
  std::optional<RSolveResult> result;
  std::string error;
};

template <typename Solve>
Outcome run(Solve&& solve) {
  Outcome out;
  try {
    out.result = solve();
  } catch (const gs::NumericalError& e) {
    out.error = e.what();
  }
  return out;
}

// Newton vs the full-width oracle; returns whether the chain solved. A
// shared Workspace also checks that reuse across shapes leaves no trace
// (its warm start is cleared first: warm starts have tests of their own).
bool expect_matches_full_width(const Matrix& a0, const Matrix& a1,
                               const Matrix& a2, gs::qbd::Workspace& ws) {
  ws.warm = false;
  const Outcome got =
      run([&] { return gs::qbd::solve_r(a0, a1, a2, {}, &ws); });
  const Outcome want =
      run([&] { return qt::full_width_logreduction(a0, a1, a2); });
  EXPECT_EQ(got.result.has_value(), want.result.has_value())
      << got.error << " vs " << want.error;
  if (!got.result || !want.result) return false;
  EXPECT_LE(rel_diff(got.result->r, want.result->r), kOracleRel);
  EXPECT_LE(rel_diff(got.result->g, want.result->g), kOracleRel);
  return true;
}

// Both checks on one chain: against the full-width loop, and R
// against successive substitution at the randomized test's tolerance.
void check_chain(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                 gs::qbd::Workspace& ws, bool against_substitution = true) {
  if (!expect_matches_full_width(a0, a1, a2, ws) || !against_substitution)
    return;
  const RSolveResult nw = gs::qbd::solve_r(a0, a1, a2);
  const RSolveResult ss = qt::substitution(a0, a1, a2);
  EXPECT_LE(gs::linalg::max_abs_diff(nw.r, ss.r), 1e-9);
}

TEST(RMatrixCompact, MaskedRandomChainsMatchFullWidth) {
  gs::util::Rng rng(20261018);
  constexpr int kChains = 24;
  gs::qbd::Workspace ws;
  int chains = 0;
  int partial = 0;
  while (chains < kChains) {
    const qt::Draw draw = qt::random_system(rng, {{3, 6}, 64, 40});
    const SystemParams& sys = draw.system;
    for (std::size_t p = 0; p < sys.num_classes() && chains < kChains; ++p) {
      if (draw.load[p] == 0.0) continue;
      const ClassProcess cp(sys, p,
                            gs::gang::away_period_heavy_traffic(sys, p));
      const auto& blk = cp.process().blocks();
      const std::vector<std::size_t> support = nonzero_columns(blk.a2);
      ASSERT_FALSE(support.empty());
      // The chain as built, then A2 masked to one live column, to none,
      // and to a random subset of its support.
      std::vector<std::vector<std::size_t>> masks{
          support, {support[rng.uniform_int(support.size())]}, {}};
      std::vector<std::size_t> subset;
      for (std::size_t j : support)
        if (rng.uniform_int(2) == 0) subset.push_back(j);
      masks.push_back(subset);
      for (std::size_t m = 0; m < masks.size(); ++m) {
        SCOPED_TRACE("chain " + std::to_string(chains) + " d=" +
                     std::to_string(blk.a1.rows()) + " mask " +
                     std::to_string(m) + " r=" +
                     std::to_string(masks[m].size()));
        check_chain(blk.a0, blk.a1, mask_columns(blk.a2, masks[m]), ws,
                    /*against_substitution=*/m == 0);
      }
      ++chains;
      partial += !subset.empty() && subset.size() < support.size();
    }
  }
  // The seed must reach a proper, nonempty subset of some support.
  EXPECT_GT(partial, 0);
}

// A dense random chain has every column of A2 live (r = d); masks then
// take random subsets of all d columns.
TEST(RMatrixCompact, DenseRandomChainsMatchFullWidth) {
  gs::util::Rng rng(7031);
  gs::qbd::Workspace ws;
  for (std::size_t d : {1, 2, 5, 12, 13}) {
    Matrix a0(d, d), a1(d, d), a2(d, d);
    for (std::size_t i = 0; i < d; ++i) {
      double out_rate = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        a0(i, j) = 0.5 * rng.uniform() + 0.01;
        a2(i, j) = rng.uniform() + 0.02;
        out_rate += a0(i, j) + a2(i, j);
        if (j != i) {
          a1(i, j) = 0.3 * rng.uniform();
          out_rate += a1(i, j);
        }
      }
      a1(i, i) = -out_rate;
    }
    std::vector<std::size_t> all(d), subset;
    for (std::size_t j = 0; j < d; ++j) {
      all[j] = j;
      if (rng.uniform_int(2) == 0) subset.push_back(j);
    }
    for (const auto& keep : {all, subset}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " r=" +
                   std::to_string(keep.size()));
      check_chain(a0, a1, mask_columns(a2, keep), ws,
                  /*against_substitution=*/keep.size() == d);
    }
  }
}

TEST(RMatrixCompact, ReferenceQueuesMatchFullWidth) {
  gs::qbd::Workspace ws;
  for (const auto& proc :
       {qt::mm1(0.6, 1.0), qt::me21(0.7, 1.0), qt::mmc(2.1, 1.0, 3)}) {
    const auto& blk = proc.blocks();
    check_chain(blk.a0, blk.a1, blk.a2, ws);
  }
}

// The class chains of Figure 2's system (d = 12, two live columns per
// class) against their heavy-traffic away periods.
TEST(RMatrixCompact, Figure2ClassChainsMatchFullWidth) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const SystemParams sys = gs::workload::paper_system(knobs);
  gs::qbd::Workspace ws;
  for (std::size_t p = 0; p < sys.num_classes(); ++p) {
    SCOPED_TRACE("class " + std::to_string(p));
    const ClassProcess cp(sys, p, gs::gang::away_period_heavy_traffic(sys, p));
    const auto& blk = cp.process().blocks();
    EXPECT_EQ(blk.a2.cols(), 12u);
    EXPECT_EQ(nonzero_columns(blk.a2).size(), 2u);
    check_chain(blk.a0, blk.a1, blk.a2, ws);
  }
}

// The class chains of the Figure 3 (heavy load), Figure 4 (uniform
// service rate) and Figure 5 (favored class) systems.
TEST(RMatrixCompact, Figure3To5ClassChainsMatchFullWidth) {
  gs::workload::PaperKnobs heavy;
  heavy.arrival_rate = 0.9;
  gs::workload::PaperKnobs uniform;
  uniform.arrival_rate = 0.5;
  uniform.uniform_service_rate = 2.0;
  const SystemParams systems[] = {
      gs::workload::paper_system(heavy), gs::workload::paper_system(uniform),
      gs::workload::figure5_system(/*favored=*/1, /*fraction=*/0.4)};
  gs::qbd::Workspace ws;
  for (std::size_t f = 0; f < 3; ++f) {
    const SystemParams& sys = systems[f];
    for (std::size_t p = 0; p < sys.num_classes(); ++p) {
      SCOPED_TRACE("figure " + std::to_string(f + 3) + " class " +
                   std::to_string(p));
      const ClassProcess cp(sys, p,
                            gs::gang::away_period_heavy_traffic(sys, p));
      const auto& blk = cp.process().blocks();
      check_chain(blk.a0, blk.a1, blk.a2, ws);
    }
  }
}

// A wide chain: 4 classes, full-machine partitions, Erlang-2
// arrivals and service, Erlang-4 quanta and overheads (d = 128). A2's
// live columns are the serving states at level c = 1 that a completion
// enters: 2 arrival phases x 4 quantum phases, with the next job starting
// in the Erlang service's first phase — 8 of 128.
TEST(RMatrixCompact, QbdKernelsChainMatchesFullWidth) {
  std::vector<gs::gang::ClassParams> classes;
  for (int p = 0; p < 4; ++p)
    classes.push_back(gs::gang::ClassParams{
        gs::phase::erlang(2, 1.0 / 0.15), gs::phase::erlang(2, 1.0),
        gs::phase::erlang(4, 1.0), gs::phase::erlang(4, 0.01), 4,
        "class" + std::to_string(p)});
  const SystemParams sys(4, std::move(classes));
  const ClassProcess cp(sys, 0, gs::gang::away_period_heavy_traffic(sys, 0));
  const auto& blk = cp.process().blocks();
  ASSERT_EQ(blk.a2.cols(), 128u);
  EXPECT_EQ(nonzero_columns(blk.a2).size(), 8u);
  gs::qbd::Workspace ws;
  check_chain(blk.a0, blk.a1, blk.a2, ws);
}

// Random systems (random_systems.hpp) with half the classes within 10%
// of the Theorem 4.4 drift boundary.
TEST(RMatrixCompact, NearBoundaryRandomChainsMatchFullWidth) {
  gs::util::Rng rng(20261021);
  constexpr int kChains = 24;
  gs::qbd::Workspace ws;
  int chains = 0;
  int near = 0;
  while (chains < kChains) {
    const qt::Draw draw = qt::random_system(rng, {{3, 6}, 64, 40});
    const SystemParams& sys = draw.system;
    for (std::size_t p = 0; p < sys.num_classes() && chains < kChains; ++p) {
      if (draw.load[p] == 0.0) continue;
      SCOPED_TRACE("chain " + std::to_string(chains) + " load " +
                   std::to_string(draw.load[p]));
      const ClassProcess cp(sys, p,
                            gs::gang::away_period_heavy_traffic(sys, p));
      const auto& blk = cp.process().blocks();
      EXPECT_TRUE(expect_matches_full_width(blk.a0, blk.a1, blk.a2, ws));
      ++chains;
      near += draw.load[p] > 0.9;
    }
  }
  EXPECT_GT(near, 0);
}

// A warm start from a poisoned X — another class's G, the class's own G
// at a heavier load, or twice its own G — either converges to the
// chain's G or is abandoned for the cold start, and the abandonment is
// counted.
TEST(RMatrixCompact, PoisonedWarmStartReachesGOrFallsBack) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const SystemParams sys = gs::workload::paper_system(knobs);
  knobs.arrival_rate = 0.7;
  const SystemParams heavier = gs::workload::paper_system(knobs);
  const std::size_t classes = sys.num_classes();
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  int fallbacks = 0;
  for (std::size_t p = 0; p < classes; ++p) {
    const ClassProcess cp(sys, p, gs::gang::away_period_heavy_traffic(sys, p));
    const auto& blk = cp.process().blocks();
    const RSolveResult want =
        qt::full_width_logreduction(blk.a0, blk.a1, blk.a2);
    const ClassProcess donors[2] = {
        {sys, (p + 1) % classes,
         gs::gang::away_period_heavy_traffic(sys, (p + 1) % classes)},
        {heavier, p, gs::gang::away_period_heavy_traffic(heavier, p)}};
    for (int poison = 0; poison < 3; ++poison) {
      SCOPED_TRACE("class " + std::to_string(p) + " poison " +
                   std::to_string(poison));
      gs::qbd::Workspace ws;
      const auto& donor =
          poison < 2 ? donors[poison].process().blocks() : blk;
      gs::qbd::solve_r(donor.a0, donor.a1, donor.a2, {}, &ws);
      if (poison == 2) ws.x *= 2.0;
      ASSERT_TRUE(ws.warm);
      gs::obs::reset();
      const RSolveResult got =
          gs::qbd::solve_r(blk.a0, blk.a1, blk.a2, {}, &ws);
      const gs::obs::Snapshot snap = gs::obs::snapshot();
      EXPECT_EQ(snap.counter_value("qbd.rsolve.newton.warm"), 1u);
      fallbacks += static_cast<int>(
          snap.counter_value("qbd.rsolve.newton.cold_fallback"));
      EXPECT_LE(rel_diff(got.r, want.r), kOracleRel);
      EXPECT_LE(rel_diff(got.g, want.g), kOracleRel);
    }
  }
  gs::obs::configure({});
  // 2 G lies above the minimal solution, and Newton from there converges
  // to another root: the fallback must have caught it.
  EXPECT_GT(fallbacks, 0);
}

// The solve reports its width: the span arg `cols` and the counter
// qbd.rsolve.newton.live_cols (r summed over solves).
TEST(RMatrixCompact, ObsReportsLiveColumns) {
  const SystemParams sys = gs::workload::paper_system({});
  const ClassProcess cp(sys, 0, gs::gang::away_period_heavy_traffic(sys, 0));
  const auto& blk = cp.process().blocks();
  gs::obs::configure({/*metrics=*/true, /*trace=*/true});
  gs::obs::reset();
  gs::qbd::solve_r(blk.a0, blk.a1, blk.a2);
  gs::qbd::solve_r(blk.a0, blk.a1, blk.a2);
  const gs::obs::Snapshot snap = gs::obs::snapshot();
  const auto events = gs::obs::trace_events();
  gs::obs::configure({});
  EXPECT_EQ(snap.counter_value("qbd.rsolve.newton.count"), 2u);
  EXPECT_EQ(snap.counter_value("qbd.rsolve.newton.live_cols"), 4u);
  int spans = 0;
  for (const auto& e : events) {
    if (e.name != "qbd.rsolve.newton") continue;
    ++spans;
    bool has_cols = false;
    for (const auto& arg : e.args)
      if (arg.key == "cols") {
        has_cols = true;
        EXPECT_EQ(arg.number, 2.0);
      }
    EXPECT_TRUE(has_cols);
  }
  EXPECT_EQ(spans, 2);
}

}  // namespace
