// Randomized check of how the boundary stage admits R. For R >= 0,
// (I-R)^{-1} e exists and is positive exactly when sp(R) < 1
// (Berman–Plemmons: I - R is then a nonsingular M-matrix), so
// qbd::solve_with_r admits R from that vector and runs the power
// iteration only to name a rejected sp(R). On the chains of random
// gang-scheduled systems within a few percent of the Theorem 4.4 drift
// boundary, and on their R scaled to just inside and just past
// sp(R) = 1, the admission must agree with linalg::spectral_radius on
// every draw, and a rejected R must still raise "sp(R) = ... >= 1".
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "linalg/spectral.hpp"
#include "obs/obs.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "random_systems.hpp"
#include "util/error.hpp"

namespace {

using gs::gang::ClassParams;
using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::linalg::Matrix;
using gs::qbd::QbdProcess;
using gs::qbd::testing::Draw;
namespace qt = gs::qbd::testing;

constexpr std::size_t kMaxDim = 60;
constexpr int kChains = 40;

std::uint64_t power_iterations() {
  return gs::obs::snapshot().counter_value("linalg.spectral_radius.calls");
}

// solve_with_r's verdict on `r`: admitted when it ran no power
// iteration, and the message of the NumericalError it raised, if any.
struct Verdict {
  bool admitted = false;
  std::string error;
};

Verdict admission(const QbdProcess& process, const Matrix& r) {
  const std::uint64_t before = power_iterations();
  Verdict v;
  try {
    (void)gs::qbd::solve_with_r(process, r);
  } catch (const gs::NumericalError& e) {
    v.error = e.what();
  }
  v.admitted = power_iterations() == before;
  return v;
}

bool names_sp_r(const std::string& error) {
  return error.find("sp(R) = ") != std::string::npos &&
         error.find(">= 1") != std::string::npos;
}

// The draw's system with class p's arrivals rescaled from the drawn load
// to `load` (up_drift scales with the arrival rate, down_drift does not).
SystemParams at_load(const Draw& draw, std::size_t p, double load) {
  std::vector<ClassParams> cls = draw.system.classes();
  cls[p].arrival = qt::with_mean(cls[p].arrival,
                                 cls[p].arrival.mean() * draw.load[p] / load);
  return SystemParams(draw.system.processors(), std::move(cls));
}

TEST(AdmissionRandomized, MMatrixTestAgreesWithPowerIteration) {
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  gs::obs::reset();
  gs::util::Rng rng(20261019);
  int chains = 0;
  while (chains < kChains) {
    const Draw draw = qt::random_system(rng, {{3, 6}, 64, kMaxDim});
    for (std::size_t p = 0; p < draw.system.num_classes() && chains < kChains;
         ++p) {
      if (draw.load[p] == 0.0) continue;
      // The drawn load (half of them within 10% of the boundary) and 1%
      // inside it.
      for (double load : {draw.load[p], 0.99}) {
        const SystemParams sys = at_load(draw, p, load);
        const ClassProcess cp(sys, p,
                              gs::gang::away_period_heavy_traffic(sys, p));
        const auto& blk = cp.process().blocks();
        SCOPED_TRACE("chain " + std::to_string(chains) + " d=" +
                     std::to_string(blk.a1.rows()) + " load " +
                     std::to_string(load));
        const Matrix r =
            gs::qbd::solve_r_logreduction(blk.a0, blk.a1, blk.a2).r;
        const double sp = gs::linalg::spectral_radius(r).radius;
        ASSERT_LT(sp, 1.0);

        const Verdict chain = admission(cp.process(), r);
        EXPECT_TRUE(chain.admitted);
        EXPECT_EQ(chain.error, "");

        // The same R scaled to sp = 0.98 and to sp = 1.02: admitted and
        // rejected (the boundary solve of a scaled R may still fail, but
        // never on sp(R)).
        for (double target : {0.98, 1.02}) {
          Matrix scaled = r;
          scaled *= target / sp;
          const bool stable =
              gs::linalg::spectral_radius(scaled).radius < 1.0;
          ASSERT_EQ(stable, target < 1.0);
          const Verdict v = admission(cp.process(), scaled);
          EXPECT_EQ(v.admitted, stable) << "target sp " << target;
          EXPECT_EQ(names_sp_r(v.error), !stable) << v.error;
        }
      }
      ++chains;
    }
  }
  gs::obs::configure({});
}

}  // namespace
