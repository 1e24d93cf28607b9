// Randomized cross-check of the one R algorithm the solver runs. Per-class
// chains of random gang-scheduled systems (gang::ClassProcess against the
// Theorem 4.1 heavy-traffic away period) must give the same R from
// logarithmic reduction and from successive substitution, the trivially
// correct oracle, with both satisfying the defining equation
// A0 + R A1 + R^2 A2 = 0. The draws cover phase-type orders 1-4 for
// arrival, service and quantum, partition sizes that are not powers of
// two, up to four classes, and loads up to a few percent inside the
// Theorem 4.4 drift boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "linalg/matrix.hpp"
#include "phase/builders.hpp"
#include "qbd/rmatrix.hpp"
#include "util/rng.hpp"

namespace {

using gs::gang::ClassParams;
using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Matrix;
using gs::linalg::Vector;
using gs::phase::PhaseType;

// Substitution is linear and each of its iterations is O(d^3), so chains
// above this repeating dimension are skipped (never built) to keep the
// test fast.
constexpr std::size_t kMaxDim = 60;
constexpr int kChains = 40;

double uniform(gs::util::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform();
}

// `ph` rescaled in time to the given mean.
PhaseType with_mean(const PhaseType& ph, double mean) {
  Matrix s = ph.generator();
  s *= ph.mean() / mean;
  return PhaseType(ph.alpha(), std::move(s));
}

// A phase-type distribution of the given order and mean, of a randomly
// chosen family.
PhaseType random_ph(gs::util::Rng& rng, int order, double mean) {
  if (order == 1) return gs::phase::exponential(1.0 / mean);
  Vector rates(static_cast<std::size_t>(order));
  for (double& r : rates) r = uniform(rng, 0.3, 3.0);
  switch (rng.uniform_int(4)) {
    case 0:
      return gs::phase::erlang(order, mean);
    case 1:
      return with_mean(gs::phase::hypoexponential(rates), mean);
    case 2: {
      Vector probs(rates.size());
      double total = 0.0;
      for (double& p : probs) total += (p = uniform(rng, 0.1, 1.0));
      for (double& p : probs) p /= total;
      return with_mean(gs::phase::hyperexponential(probs, rates), mean);
    }
    default: {
      Vector cont(rates.size() - 1);
      for (double& c : cont) c = uniform(rng, 0.2, 0.9);
      return with_mean(gs::phase::coxian(rates, cont), mean);
    }
  }
}

int random_order(gs::util::Rng& rng) {
  return 1 + static_cast<int>(rng.uniform_int(4));
}

// Repeating-level dimension of class p's chain, computed without building
// it: arrival phase x service-phase configurations of the c_p = P/g(p)
// busy partitions x cycle phase (quantum, then away period).
std::size_t repeating_dim(const SystemParams& sys, std::size_t p) {
  const ClassParams& c = sys.cls(p);
  const std::size_t busy = sys.processors() / c.partition_size;
  const std::size_t phases = c.service.order();
  std::size_t configs = 1;  // C(busy + phases - 1, phases - 1)
  for (std::size_t k = 1; k < phases; ++k)
    configs = configs * (busy + k) / k;
  const std::size_t away = gs::gang::away_period_heavy_traffic(sys, p).order();
  return c.arrival.order() * configs * (c.quantum.order() + away);
}

// A random system in which every class whose chain is small enough to
// test, solved against its heavy-traffic away period, sits at the drawn
// fraction of its drift boundary.
struct Draw {
  SystemParams system;
  std::vector<double> load;  ///< up_drift / down_drift; 0 = skipped class
};

Draw random_system(gs::util::Rng& rng) {
  const std::size_t processors = rng.uniform_int(2) == 0 ? 3 : 6;
  std::vector<std::size_t> divisors;
  for (std::size_t g = 1; g <= processors; ++g)
    if (processors % g == 0) divisors.push_back(g);
  const std::size_t classes = 1 + rng.uniform_int(4);
  std::vector<ClassParams> cls;
  for (std::size_t p = 0; p < classes; ++p) {
    // Unit arrival rate for now; rescaled below to the drawn load.
    PhaseType arrival = random_ph(rng, random_order(rng), 1.0);
    PhaseType service =
        random_ph(rng, random_order(rng), uniform(rng, 0.5, 2.0));
    PhaseType quantum =
        random_ph(rng, random_order(rng), uniform(rng, 0.5, 4.0));
    PhaseType overhead = gs::phase::exponential(uniform(rng, 10.0, 100.0));
    ClassParams c{std::move(arrival), std::move(service), std::move(quantum),
                  std::move(overhead),
                  divisors[rng.uniform_int(divisors.size())], ""};
    cls.push_back(std::move(c));
  }
  const SystemParams unit(processors, cls);

  // In the repeating levels arrivals only raise the level, so the
  // arrival phase is independent of the rest of the chain: scaling the
  // arrival rate scales up_drift and leaves down_drift alone. The away
  // period of class p does not depend on any class's arrivals.
  std::vector<double> load(classes, 0.0);
  for (std::size_t p = 0; p < classes; ++p) {
    if (repeating_dim(unit, p) > kMaxDim) continue;
    const ClassProcess cp(unit, p,
                          gs::gang::away_period_heavy_traffic(unit, p));
    const auto drift = cp.process().drift();
    // Half the classes sit within 10% of the boundary.
    load[p] = rng.uniform_int(2) == 0 ? uniform(rng, 0.3, 0.9)
                                      : uniform(rng, 0.9, 0.97);
    cls[p].arrival = with_mean(cls[p].arrival,
                               drift.up_drift / (load[p] * drift.down_drift));
  }
  return {SystemParams(processors, std::move(cls)), std::move(load)};
}

TEST(RMatrixRandomized, LogReductionMatchesSubstitutionOracle) {
  gs::util::Rng rng(20260917);
  int chains = 0;
  int non_power_of_two = 0;
  int four_classes = 0;
  int order4 = 0;
  int heavy = 0;
  while (chains < kChains) {
    const Draw draw = random_system(rng);
    const SystemParams& sys = draw.system;
    for (std::size_t p = 0; p < sys.num_classes() && chains < kChains; ++p) {
      if (draw.load[p] == 0.0) continue;
      const ClassProcess cp(sys, p,
                            gs::gang::away_period_heavy_traffic(sys, p));
      const auto& blk = cp.process().blocks();
      ASSERT_EQ(blk.a1.rows(), repeating_dim(sys, p));
      const auto& c = sys.cls(p);
      SCOPED_TRACE("chain " + std::to_string(chains) + ": P=" +
                   std::to_string(sys.processors()) + " L=" +
                   std::to_string(sys.num_classes()) + " p=" +
                   std::to_string(p) + " g=" +
                   std::to_string(c.partition_size) + " orders " +
                   std::to_string(c.arrival.order()) + "/" +
                   std::to_string(c.service.order()) + "/" +
                   std::to_string(c.quantum.order()) + " d=" +
                   std::to_string(blk.a1.rows()) + " load " +
                   std::to_string(draw.load[p]));

      const auto drift = cp.process().drift();
      ASSERT_TRUE(drift.stable);
      EXPECT_NEAR(drift.up_drift / drift.down_drift, draw.load[p], 1e-9);

      const auto lr = gs::qbd::solve_r_logreduction(blk.a0, blk.a1, blk.a2);
      const auto ss = gs::qbd::solve_r_substitution(blk.a0, blk.a1, blk.a2);
      EXPECT_LE(gs::linalg::max_abs_diff(lr.r, ss.r), 1e-9);
      EXPECT_LE(lr.residual, 1e-10);
      EXPECT_LE(ss.residual, 1e-10);

      ++chains;
      const std::size_t g = c.partition_size;
      if ((g & (g - 1)) != 0) ++non_power_of_two;
      if (sys.num_classes() == 4) ++four_classes;
      if (c.arrival.order() == 4 || c.service.order() == 4 ||
          c.quantum.order() == 4)
        ++order4;
      if (draw.load[p] > 0.9) ++heavy;
    }
  }
  // The seed must actually reach the corners the draw is meant to cover.
  EXPECT_GT(non_power_of_two, 0);
  EXPECT_GT(four_classes, 0);
  EXPECT_GT(order4, 0);
  EXPECT_GT(heavy, 0);
}

}  // namespace
