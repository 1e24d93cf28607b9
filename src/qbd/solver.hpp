// Full stationary solution of a QBD process (Theorem 4.2):
//   * R from the repeating blocks by logarithmic reduction,
//   * boundary vectors from the finite balance system (eqs. 21–22, 25–26),
//     solved level by level (linear level reduction, DESIGN.md),
//   * normalization via the matrix-geometric tail (eq. 24),
// and the performance measures built on it (eq. 37).
#pragma once

#include <vector>

#include "qbd/qbd.hpp"
#include "qbd/rmatrix.hpp"

namespace gs::qbd {

/// Knobs for solve(). The defaults reproduce the paper's configuration.
struct SolveOptions {
  /// Tolerance / iteration caps forwarded to the R solver (logarithmic
  /// reduction, the only algorithm solve() runs — see DESIGN.md
  /// § R-matrix).
  RSolveOptions r_options{};
  /// When false (default) an unstable chain (drift condition violated)
  /// raises gs::NumericalError before any expensive work.
  bool skip_stability_check = false;
};

/// The stationary distribution of a solved QBD in matrix-geometric
/// form: explicit boundary vectors pi_0..pi_b plus R, from which any
/// level and the standard moments are computed on demand. Immutable
/// after construction and safe to read from multiple threads.
class QbdSolution {
 public:
  /// Assembled by solve(); `boundary_pi` holds pi_0..pi_b already
  /// normalized.
  QbdSolution(std::vector<Vector> boundary_pi, Matrix r);

  /// As above but with (I-R)^{-1} supplied by the caller. The boundary
  /// stage already inverted I-R for the normalization row, and the same
  /// deterministic kernels on the same `r` produce the same bits, so
  /// handing the inverse over skips a redundant O(d^3) factorization per
  /// solve. `i_minus_r_inv` must be linalg::inverse(I - r) of this `r`.
  QbdSolution(std::vector<Vector> boundary_pi, Matrix r, Matrix i_minus_r_inv);

  /// pi_i for a boundary level 0 <= i <= b.
  const Vector& boundary_level(std::size_t i) const;
  /// Number of boundary vectors available (= b + 1).
  std::size_t boundary_levels() const { return boundary_pi_.size(); }
  /// pi_{b+n} = pi_b R^n for any level >= b; boundary levels are returned
  /// directly.
  Vector level(std::size_t i) const;
  /// Total probability mass of a level, pi_i e.
  double level_mass(std::size_t i) const;

  /// Neuts' rate matrix R (minimal nonnegative solution of eq. 23).
  const Matrix& r() const { return r_; }
  /// sp(R) by power iteration (linalg::spectral_radius); < 1 iff the
  /// repeating portion is positive recurrent. Computed on every call and
  /// not cached, so the solution stays immutable and safe to share across
  /// threads: solve() admits R without it (see solve_with_r), and callers
  /// that report it call this once per answer.
  double spectral_radius_r() const;

  /// Mean level E[N] — the generalized eq. (37):
  /// sum_{i<b} i pi_i e + b pi_b (I-R)^{-1} e + pi_b R (I-R)^{-2} e.
  double mean_level() const;

  /// E[N^2] via the same geometric-series algebra (for variance of the
  /// queue length).
  double second_moment_level() const;

  /// P(N > level b - 1 + k): mass at or above repeating level b+k.
  double tail_mass_from(std::size_t k) const;

  /// tail_mass_from(k) for k = 0..count-1, computed incrementally in one
  /// pass (O(count d^2) instead of O(count^2 d^2)) — used by deep
  /// truncation scans.
  std::vector<double> tail_mass_sequence(std::size_t count) const;

  /// Lazy twin of tail_mass_sequence for scans whose depth is not known
  /// up front: the k-th next() returns tail_mass_sequence(...)[k] with
  /// bit-for-bit the same arithmetic (one carried v = v R per step), but
  /// stops paying the O(d^2) step the moment the caller stops asking —
  /// the truncation scan in gang::ClassProcess reads ~l_max entries where
  /// the eager sequence always computed max_levels of them. The carried
  /// vector advances between two buffers, so a step allocates nothing.
  class TailScan {
   public:
    /// tail_mass_from(k) where k counts prior next() calls (0-based).
    double next();
    /// pi_{b+k} = pi_b R^k of the last next() (k as there): the level
    /// vector the scan just weighed, bit for bit level(b + k), for callers
    /// that walk the levels anyway. Valid until the next next().
    const Vector& level_vector() const { return v_; }
    /// A floor on the tail's decay per level: each next() returns at
    /// least decay_floor() times the one before it, so n levels on the
    /// tail is at least decay_floor()^n times what it is now. With
    /// w = (I-R)^{-1} e >= e, R w = w - e >= (1 - 1/min_i w_i) w, and
    /// R >= 0 carries that through R^n. In [0, 1); 0 when no floor holds.
    double decay_floor() const;

   private:
    friend class QbdSolution;
    explicit TailScan(const QbdSolution& sol);
    const QbdSolution& sol_;
    Vector v_;   // pi_b R^k, advanced one multiply per next() after the first
    Vector w_;   // (I-R)^{-1} e, fixed
    Vector next_v_;  // storage the advance writes into, swapped with v_
    bool first_ = true;
  };

  /// Start an incremental tail-mass scan at the last boundary level. The
  /// scan references this solution; it must not outlive it.
  TailScan tail_scan() const { return TailScan(*this); }

  /// Aggregated phase distribution over the repeating portion:
  /// sum_{n>=0} pi_{b+n} = pi_b (I-R)^{-1}.
  Vector repeating_phase_mass() const;

  /// Consistency: total probability (should be 1 up to solver tolerance).
  double total_mass() const;

  /// The same sum for boundary vectors pi_0..pi_b and (I-R)^{-1} not yet
  /// wrapped in a solution: pi_0 e + ... + pi_{b-1} e + pi_b (I-R)^{-1} e.
  static double total_mass(const std::vector<Vector>& boundary_pi,
                           const Matrix& i_minus_r_inv);

 private:
  std::vector<Vector> boundary_pi_;  // levels 0..b
  Matrix r_;
  Matrix i_minus_r_inv_;
};

/// Solve the QBD. Throws gs::NumericalError when the drift condition
/// fails (unless skipped) or the linear algebra breaks down.
///
/// `ws` is optional scratch storage (see qbd::Workspace): callers that
/// solve same-shaped chains repeatedly — the gang fixed point re-solves L
/// chains every iteration — pass one Workspace per concurrent solve and
/// the R-matrix and boundary temporaries stop being reallocated.
QbdSolution solve(const QbdProcess& process, const SolveOptions& opts = {},
                  Workspace* ws = nullptr);

/// The boundary stage of solve() for a caller that already has R in hand
/// (an R computed by another algorithm, or a stage-by-stage replay):
/// admission of R, the finite balance system, and normalization,
/// bit-for-bit the tail of solve().
///
/// Admission needs sp(R) < 1 but runs no power iteration: for R >= 0,
/// I - R is a nonsingular M-matrix — equivalently sp(R) < 1 — exactly
/// when (I-R)^{-1} e exists and is positive (Berman–Plemmons), and the
/// normalization row needs that vector anyway. Only when the test fails,
/// or I - R is singular, does the power iteration run, to name sp(R) in
/// the gs::NumericalError ("sp(R) = ... >= 1") or to let a chain whose
/// sp(R) it finds below 1 go on as before. An R with a negative (or NaN)
/// entry raises linalg::spectral_radius's gs::InvalidArgument.
/// Skips the drift check (the R computation already vouched for it).
/// The boundary stage has no knobs: `opts` is read by nothing here.
QbdSolution solve_with_r(const QbdProcess& process, const Matrix& r,
                         const SolveOptions& opts = {},
                         Workspace* ws = nullptr);

}  // namespace gs::qbd
