// Anderson acceleration of the Section 4.3 fixed point (type II, Walker &
// Ni, SIAM J. Numer. Anal. 49(4), 2011).
//
// In the default moment-matched mode the whole fixed-point state is 3L
// numbers: each class's effective-quantum atom and first two moments,
// from which EffectiveQuantum::fitted rebuilds the slice. The plain
// update feeds the image of the current iterate straight back in and
// contracts only linearly (0.76-0.86 per iteration on the Figure 2
// system). The accelerated update mixes the last few images with the
// least-squares weights that best cancel their residuals, and converges
// to the same fixed point in a fraction of the iterations.
//
// Safeguard: an extrapolated iterate whose moments are infeasible (atom
// outside [0, 1 - 1e-9), a non-positive moment, or a mean above the full
// quantum's) is replaced by the plain image and the history restarts.
// The mean bound keeps every away period no longer than Theorem 4.1's
// heavy-traffic one; the Theorem 4.4 drift depends on the away period
// only through its mean, so a system admitted under heavy traffic stays
// admitted.
//
// Plain scalar arithmetic in a fixed order, so an accelerated solve is
// bitwise reproducible at any thread count.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "gang/class_process.hpp"
#include "gang/params.hpp"

namespace gs::gang {

/// Per-solve history of the accelerated fixed-point update. One instance
/// per fixed-point run; construct a fresh one whenever the iteration
/// restarts from new slices.
class AndersonAccelerator {
 public:
  /// Number of residual differences the least-squares step mixes.
  static constexpr std::size_t kWindow = 3;

  /// Moments are scaled by each class's full quantum (E[Q_q], E[Q_q^2]),
  /// so every coordinate of the iterate is O(1).
  explicit AndersonAccelerator(const SystemParams& params);

  /// Replace `slices` (the iterate just solved) by the next iterate,
  /// given `image`, the effective quanta that iterate produced. The first
  /// call takes the plain image — the history starts there, so no moments
  /// are ever read back from the initial slices.
  void next_slices(const std::vector<EffectiveQuantum>& image,
                   int fit_max_order, std::vector<PhaseType>& slices);

 private:
  bool extrapolate(const std::vector<double>& g, std::vector<double>& x);
  bool feasible(const std::vector<double>& x) const;

  std::vector<double> q1_, q2_;  ///< E[Q_q], E[Q_q^2] of the full quanta
  std::vector<double> x_;        ///< current iterate; empty at the start
  /// Last kWindow + 1 images g_i and residuals f_i = g_i - x_i, oldest
  /// first.
  std::deque<std::vector<double>> g_hist_, f_hist_;
};

}  // namespace gs::gang
