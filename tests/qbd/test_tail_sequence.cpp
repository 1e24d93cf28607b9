#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "qbd/solver.hpp"
#include "qbd_test_util.hpp"

namespace {

namespace qt = gs::qbd::testing;

TEST(TailSequence, MatchesPointwiseTailMass) {
  const auto sol = gs::qbd::solve(qt::me21(0.7, 1.0));
  const auto seq = sol.tail_mass_sequence(40);
  ASSERT_EQ(seq.size(), 40u);
  for (std::size_t k : {0u, 1u, 5u, 17u, 39u})
    EXPECT_NEAR(seq[k], sol.tail_mass_from(k), 1e-13) << "k=" << k;
}

TEST(TailSequence, TailScanMatchesEagerSequenceBitwise) {
  // The lazy scan advances the same carried v = v R recurrence as the
  // eager sequence, so entry k must be bit-identical to
  // tail_mass_sequence(...)[k] — the truncation scans in gang rely on it.
  const auto sol = gs::qbd::solve(qt::me21(0.7, 1.0));
  const auto seq = sol.tail_mass_sequence(40);
  auto scan = sol.tail_scan();
  for (std::size_t k = 0; k < seq.size(); ++k)
    EXPECT_EQ(scan.next(), seq[k]) << "k=" << k;
}

TEST(TailSequence, TailScanLevelVectorIsTheLevelBitwise) {
  // The vector the scan just weighed is pi_{b+k}, byte for byte what
  // level() computes: gang::ClassProcess reads its slice starts from it.
  const auto sol = gs::qbd::solve(qt::me21(0.7, 1.0));
  const std::size_t b = sol.boundary_levels() - 1;
  auto scan = sol.tail_scan();
  for (std::size_t k = 0; k < 30; ++k) {
    scan.next();
    const gs::linalg::Vector want = sol.level(b + k);
    const gs::linalg::Vector& got = scan.level_vector();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "k=" << k;
  }
}

TEST(TailSequence, DecayFloorBoundsEveryStep) {
  // decay_floor() = 1 - 1/min_i ((I-R)^{-1} e)_i is a proven floor on the
  // tail's ratio per step (gang's truncation scan stops on it); on M/M/1,
  // where (I-R)^{-1} e is the scalar 1/(1-rho), it is rho itself.
  const std::vector<gs::qbd::QbdProcess> chains = {
      qt::mm1(0.8, 1.0), qt::mmc(3.0, 1.0, 4), qt::me21(0.7, 1.0),
      qt::me21(0.95, 1.0)};
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto sol = gs::qbd::solve(chains[c]);
    auto scan = sol.tail_scan();
    const double floor = scan.decay_floor();
    EXPECT_GE(floor, 0.0) << "chain " << c;
    EXPECT_LT(floor, 1.0) << "chain " << c;
    if (c == 0) {
      EXPECT_NEAR(floor, 0.8, 1e-12);
    }
    double prev = scan.next();
    for (std::size_t k = 1; k < 300 && prev > 1e-250; ++k) {
      const double t = scan.next();
      EXPECT_GE(t, floor * prev * (1.0 - 1e-12)) << "chain " << c << " k=" << k;
      prev = t;
    }
  }
}

TEST(TailSequence, GeometricDecayOnMm1) {
  const double rho = 0.8;
  const auto sol = gs::qbd::solve(qt::mm1(rho, 1.0));
  const auto seq = sol.tail_mass_sequence(30);
  for (std::size_t k = 1; k < seq.size(); ++k)
    EXPECT_NEAR(seq[k] / seq[k - 1], rho, 1e-10) << "k=" << k;
}

TEST(TailSequence, MonotoneNonIncreasing) {
  const auto sol = gs::qbd::solve(qt::mmc(3.0, 1.0, 4));
  const auto seq = sol.tail_mass_sequence(50);
  for (std::size_t k = 1; k < seq.size(); ++k)
    EXPECT_LE(seq[k], seq[k - 1] + 1e-15);
}

}  // namespace
