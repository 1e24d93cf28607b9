// Property-style sweeps over the phase-type algebra: identities that must
// hold for arbitrary members of the family, exercised across a grid of
// representatives (parameterized gtest).
#include <gtest/gtest.h>

#include <cmath>

#include "phase/builders.hpp"
#include "phase/fitting.hpp"
#include "phase/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace gs::phase;

PhaseType representative(int which) {
  switch (which) {
    case 0: return exponential(1.3);
    case 1: return erlang(3, 0.8);
    case 2: return hyperexponential({0.3, 0.7}, {0.4, 3.0});
    case 3: return hypoexponential({1.0, 2.5, 4.0});
    case 4: return coxian({2.0, 1.0, 3.0}, {0.8, 0.5});
    default: return fit_mean_scv(1.7, 2.5);
  }
}

class PhaseFamily : public ::testing::TestWithParam<int> {};

TEST_P(PhaseFamily, CdfPdfConsistency) {
  // d/dt CDF = pdf (central difference).
  const PhaseType p = representative(GetParam());
  for (double t : {0.3, 0.9, 2.0}) {
    const double h = 1e-5;
    const double numeric = (p.cdf(t + h) - p.cdf(t - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, p.pdf(t), 1e-5 * (1.0 + p.pdf(t))) << "t=" << t;
  }
}

TEST_P(PhaseFamily, MeanIsIntegralOfSurvival) {
  // E[X] = int_0^inf sf(t) dt (trapezoid over a long grid).
  const PhaseType p = representative(GetParam());
  const double upper = 20.0 * p.mean();
  const int steps = 4000;
  double integral = 0.0;
  double prev = p.sf(0.0);
  for (int i = 1; i <= steps; ++i) {
    const double t = upper * i / steps;
    const double cur = p.sf(t);
    integral += 0.5 * (prev + cur) * (upper / steps);
    prev = cur;
  }
  EXPECT_NEAR(integral, p.mean(), 2e-3 * p.mean());
}

TEST_P(PhaseFamily, ConvolutionWithZeroishIsIdentity) {
  // Convolving with a tiny-mean exponential barely changes the law.
  const PhaseType p = representative(GetParam());
  const PhaseType c = convolve(p, exponential(1e7));
  EXPECT_NEAR(c.mean(), p.mean(), 1e-6 * (1.0 + p.mean()));
  EXPECT_NEAR(c.cdf(p.mean()), p.cdf(p.mean()), 1e-4);
}

TEST_P(PhaseFamily, SamplingMeanMatchesAnalytic) {
  const PhaseType p = representative(GetParam());
  gs::util::Rng rng(9000 + GetParam());
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += p.sample(rng);
  EXPECT_NEAR(sum / n, p.mean(), 0.03 * p.mean());
}

TEST_P(PhaseFamily, ScaledCommutesWithMoments) {
  const PhaseType p = representative(GetParam());
  const PhaseType s = p.scaled(3.0);
  EXPECT_NEAR(s.moment(1), 3.0 * p.moment(1), 1e-10);
  EXPECT_NEAR(s.moment(2), 9.0 * p.moment(2), 1e-8);
  EXPECT_NEAR(s.moment(3), 27.0 * p.moment(3), 1e-6);
}

TEST_P(PhaseFamily, MinimumWithItselfHalvesExponentialOnly) {
  // min(X, X') has a smaller mean; equals mean/2 exactly iff exponential.
  const PhaseType p = representative(GetParam());
  const PhaseType m = minimum(p, p);
  EXPECT_LT(m.mean(), p.mean());
  if (GetParam() == 0) {
    EXPECT_NEAR(m.mean(), p.mean() / 2.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Representatives, PhaseFamily,
                         ::testing::Range(0, 6));

TEST(PhaseProperties, ConvolutionIsAssociativeInDistribution) {
  const PhaseType a = exponential(1.0);
  const PhaseType b = erlang(2, 0.5);
  const PhaseType c = hyperexponential({0.5, 0.5}, {1.0, 4.0});
  const PhaseType left = convolve(convolve(a, b), c);
  const PhaseType right = convolve(a, convolve(b, c));
  for (double t : {0.5, 1.5, 4.0})
    EXPECT_NEAR(left.cdf(t), right.cdf(t), 1e-10) << "t=" << t;
  EXPECT_NEAR(left.moment(2), right.moment(2), 1e-9);
}

TEST(PhaseProperties, ConvolutionIsCommutativeInDistribution) {
  // This is why the away period F_p does not depend on the cycle order of
  // the other classes — only on the set of quanta and overheads.
  const PhaseType a = erlang(2, 1.0);
  const PhaseType b = hyperexponential({0.2, 0.8}, {0.5, 2.0});
  const PhaseType ab = convolve(a, b);
  const PhaseType ba = convolve(b, a);
  for (double t : {0.4, 1.2, 3.0})
    EXPECT_NEAR(ab.cdf(t), ba.cdf(t), 1e-10) << "t=" << t;
}

TEST(PhaseProperties, MixtureOfMixturesFlattens) {
  const PhaseType a = exponential(1.0);
  const PhaseType b = exponential(3.0);
  const PhaseType c = exponential(9.0);
  const PhaseType nested = mixture({0.5, 0.5}, {mixture({0.4, 0.6}, {a, b}), c});
  const PhaseType flat = mixture({0.2, 0.3, 0.5}, {a, b, c});
  for (double t : {0.2, 1.0})
    EXPECT_NEAR(nested.cdf(t), flat.cdf(t), 1e-11) << "t=" << t;
  EXPECT_NEAR(nested.mean(), flat.mean(), 1e-12);
}

}  // namespace
