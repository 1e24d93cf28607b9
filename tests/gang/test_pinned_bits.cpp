// Absolute bits of the Section 4.3 fixed point on phase-type-service
// systems. The reproduction golden and the daemon smoke golden only hold
// exponential service, where every serving-state block of Theorem 4.3 is
// 2x2; with Erlang-2 or H2 service the blocks grow with the level, and
// with exponential quanta the completion blocks are more than half dense
// at some levels and sparser at others, so the serving chain's
// elimination runs on blocks of many shapes and densities. These pins
// hold N_p and the effective-quantum mean of every class to the exact
// bits (printed with %a), so a kernel change that moves any of them fails
// here rather than only in a comparison of two runs of the same code.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "gang/solver.hpp"
#include "phase/builders.hpp"

namespace {

using gs::gang::ClassParams;
using gs::gang::GangSolver;
using gs::gang::SystemParams;
using gs::phase::PhaseType;
namespace ph = gs::phase;

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// P = 8 with a g = 2 class (four partitions) and a g = 4 class (two),
// both at arrival rate lambda, with the given service and quanta and
// exponential overheads of mean 0.01.
SystemParams two_class_p8(double lambda, const PhaseType& service,
                          const PhaseType& quantum) {
  std::vector<ClassParams> cls;
  cls.push_back(ClassParams{ph::exponential(lambda), service, quantum,
                            ph::exponential(100.0), 2, "g2"});
  cls.push_back(ClassParams{ph::exponential(lambda), service, quantum,
                            ph::exponential(100.0), 4, "g4"});
  return SystemParams(8, std::move(cls));
}

struct Pin {
  double lambda;
  // N_p and eff_quantum_mean of class g = 2, then of class g = 4.
  const char* bits[4];
};

void expect_pinned(const PhaseType& service, const PhaseType& quantum,
                   const std::vector<Pin>& pins) {
  for (const Pin& pin : pins) {
    const auto report =
        GangSolver(two_class_p8(pin.lambda, service, quantum)).solve();
    EXPECT_TRUE(report.converged) << "lambda " << pin.lambda;
    ASSERT_EQ(report.per_class.size(), 2u);
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_EQ(hex(report.per_class[p].mean_jobs), pin.bits[2 * p])
          << "N_" << p << " at lambda " << pin.lambda;
      EXPECT_EQ(hex(report.per_class[p].eff_quantum_mean),
                pin.bits[2 * p + 1])
          << "eff_quantum_mean of class " << p << " at lambda "
          << pin.lambda;
    }
  }
}

const PhaseType kErlangTwo = ph::erlang(2, 1.0);
const PhaseType kHyperexponential =
    ph::hyperexponential({0.3, 0.7}, {0.5, 3.0});

TEST(PinnedBits, ErlangTwoServiceErlangTwoQuanta) {
  expect_pinned(kErlangTwo, ph::erlang(2, 1.0),
                {
                    {0.3,
                     {"0x1.63e8f4c85338ep-2", "0x1.4f47965556929p-7",
                      "0x1.6b2d865bc6545p-2", "0x1.52d58b1b989ccp-7"}},
                    {0.6,
                     {"0x1.9134de158f92fp-1", "0x1.a3d75dd879b64p-5",
                      "0x1.b639036da5f02p-1", "0x1.b8820ecc2a795p-5"}},
                    {0.9,
                     {"0x1.a6f6e9b0c2779p+0", "0x1.a0e9573637e13p-2",
                      "0x1.38dd82bf59e73p+1", "0x1.e54d9a28853b3p-2"}},
                });
}

TEST(PinnedBits, HyperexponentialServiceErlangTwoQuanta) {
  expect_pinned(kHyperexponential, ph::erlang(2, 1.0),
                {
                    {0.3,
                     {"0x1.2cafa8de15ecdp-2", "0x1.fa5a673fc9426p-8",
                      "0x1.3486fcaf21f62p-2", "0x1.fc968ce91ff78p-8"}},
                    {0.6,
                     {"0x1.4fe705e17a686p-1", "0x1.ee7b21cb7fc56p-6",
                      "0x1.764a5e6ed68d9p-1", "0x1.f8b1003d4c097p-6"}},
                    {0.9,
                     {"0x1.2c3658471d3bep+0", "0x1.62ccbe8e2d82cp-3",
                      "0x1.9e9650cfa2ccep+0", "0x1.79565914d8173p-3"}},
                });
}

// A one-phase quantum leaves each completion block a plain copy of the
// service configurations' completion pattern, which is more than half
// dense at some levels.
TEST(PinnedBits, ErlangTwoServiceExponentialQuanta) {
  expect_pinned(kErlangTwo, ph::exponential(1.0),
                {
                    {0.3,
                     {"0x1.67fc0759f21a6p-2", "0x1.4dfdb1ece5fe2p-7",
                      "0x1.6f4aba2fcb0b7p-2", "0x1.51ac1a90d72e3p-7"}},
                    {0.6,
                     {"0x1.9c18ba93424b6p-1", "0x1.93a85bf5d30e8p-5",
                      "0x1.c0ea18213cfddp-1", "0x1.a926a80e56364p-5"}},
                    {0.9,
                     {"0x1.b96e75f26bd01p+0", "0x1.61650e06fc3f6p-2",
                      "0x1.33c2e2dba9793p+1", "0x1.a0ee5d2bd4c1fp-2"}},
                });
}

TEST(PinnedBits, HyperexponentialServiceExponentialQuanta) {
  expect_pinned(kHyperexponential, ph::exponential(1.0),
                {
                    {0.3,
                     {"0x1.32f1b115ed28p-2", "0x1.f8d3de363ba22p-8",
                      "0x1.3b02f273fe4afp-2", "0x1.fb2eb7f49865cp-8"}},
                    {0.6,
                     {"0x1.5cb952423b5b4p-1", "0x1.e4c916d10e08bp-6",
                      "0x1.8480bc03c65cap-1", "0x1.ef9ee0e1bbf0fp-6"}},
                    {0.9,
                     {"0x1.3c4449ac75cadp+0", "0x1.3d3528c1d436fp-3",
                      "0x1.add1125bceb2cp+0", "0x1.530660f573b1ep-3"}},
                });
}

}  // namespace
