// Seeded random gang-scheduled systems for the randomized QBD tests:
// phase-type orders 1-4 for arrival, service and quantum, partition sizes
// that need not be powers of two, up to four classes, and per-class loads
// up to a few percent inside the Theorem 4.4 drift boundary (measured
// against the Theorem 4.1 heavy-traffic away period).
#pragma once

#include <cstddef>
#include <vector>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "linalg/matrix.hpp"
#include "phase/builders.hpp"
#include "util/rng.hpp"

namespace gs::qbd::testing {

inline double uniform(util::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform();
}

/// `ph` rescaled in time to the given mean.
inline phase::PhaseType with_mean(const phase::PhaseType& ph, double mean) {
  linalg::Matrix s = ph.generator();
  s *= ph.mean() / mean;
  return phase::PhaseType(ph.alpha(), std::move(s));
}

/// A phase-type distribution of the given order and mean, of a randomly
/// chosen family.
inline phase::PhaseType random_ph(util::Rng& rng, int order, double mean) {
  if (order == 1) return phase::exponential(1.0 / mean);
  linalg::Vector rates(static_cast<std::size_t>(order));
  for (double& r : rates) r = uniform(rng, 0.3, 3.0);
  switch (rng.uniform_int(4)) {
    case 0:
      return phase::erlang(order, mean);
    case 1:
      return with_mean(phase::hypoexponential(rates), mean);
    case 2: {
      linalg::Vector probs(rates.size());
      double total = 0.0;
      for (double& p : probs) total += (p = uniform(rng, 0.1, 1.0));
      for (double& p : probs) p /= total;
      return with_mean(phase::hyperexponential(probs, rates), mean);
    }
    default: {
      linalg::Vector cont(rates.size() - 1);
      for (double& c : cont) c = uniform(rng, 0.2, 0.9);
      return with_mean(phase::coxian(rates, cont), mean);
    }
  }
}

inline int random_order(util::Rng& rng) {
  return 1 + static_cast<int>(rng.uniform_int(4));
}

/// Repeating-level dimension of class p's chain, computed without
/// building it: arrival phase x service-phase configurations of the
/// c_p = P/g(p) busy partitions x cycle phase (quantum, then away period).
inline std::size_t repeating_dim(const gang::SystemParams& sys,
                                 std::size_t p) {
  const gang::ClassParams& c = sys.cls(p);
  const std::size_t busy = sys.processors() / c.partition_size;
  const std::size_t phases = c.service.order();
  std::size_t configs = 1;  // C(busy + phases - 1, phases - 1)
  for (std::size_t k = 1; k < phases; ++k)
    configs = configs * (busy + k) / k;
  const std::size_t away = gang::away_period_heavy_traffic(sys, p).order();
  return c.arrival.order() * configs * (c.quantum.order() + away);
}

/// What random_system draws from.
struct DrawShape {
  /// Processor counts P, one drawn uniformly per system.
  std::vector<std::size_t> processors = {3, 6};
  /// Partition sizes g are drawn among the divisors of P with
  /// P / g <= this (at most this many boundary-interior levels).
  std::size_t max_partitions = 64;
  /// Classes whose repeating dimension exceeds this get no load (the
  /// caller skips them) and their chains are never built.
  std::size_t max_dim = 60;
};

/// A random system in which every class whose chain is small enough to
/// test, solved against its heavy-traffic away period, sits at the drawn
/// fraction of its drift boundary.
struct Draw {
  gang::SystemParams system;
  std::vector<double> load;  ///< up_drift / down_drift; 0 = skipped class
};

inline Draw random_system(util::Rng& rng, const DrawShape& shape = {}) {
  const std::size_t processors =
      shape.processors[rng.uniform_int(shape.processors.size())];
  std::vector<std::size_t> divisors;
  for (std::size_t g = 1; g <= processors; ++g)
    if (processors % g == 0 && processors / g <= shape.max_partitions)
      divisors.push_back(g);
  const std::size_t classes = 1 + rng.uniform_int(4);
  std::vector<gang::ClassParams> cls;
  for (std::size_t p = 0; p < classes; ++p) {
    // Unit arrival rate for now; rescaled below to the drawn load.
    phase::PhaseType arrival = random_ph(rng, random_order(rng), 1.0);
    phase::PhaseType service =
        random_ph(rng, random_order(rng), uniform(rng, 0.5, 2.0));
    phase::PhaseType quantum =
        random_ph(rng, random_order(rng), uniform(rng, 0.5, 4.0));
    phase::PhaseType overhead = phase::exponential(uniform(rng, 10.0, 100.0));
    gang::ClassParams c{std::move(arrival), std::move(service),
                        std::move(quantum), std::move(overhead),
                        divisors[rng.uniform_int(divisors.size())], ""};
    cls.push_back(std::move(c));
  }
  const gang::SystemParams unit(processors, cls);

  // In the repeating levels arrivals only raise the level, so the
  // arrival phase is independent of the rest of the chain: scaling the
  // arrival rate scales up_drift and leaves down_drift alone. The away
  // period of class p does not depend on any class's arrivals.
  std::vector<double> load(classes, 0.0);
  for (std::size_t p = 0; p < classes; ++p) {
    if (repeating_dim(unit, p) > shape.max_dim) continue;
    const gang::ClassProcess cp(unit, p,
                                gang::away_period_heavy_traffic(unit, p));
    const auto drift = cp.process().drift();
    // Half the classes sit within 10% of the boundary.
    load[p] = rng.uniform_int(2) == 0 ? uniform(rng, 0.3, 0.9)
                                      : uniform(rng, 0.9, 0.97);
    cls[p].arrival = with_mean(cls[p].arrival,
                               drift.up_drift / (load[p] * drift.down_drift));
  }
  return {gang::SystemParams(processors, std::move(cls)), std::move(load)};
}

}  // namespace gs::qbd::testing
