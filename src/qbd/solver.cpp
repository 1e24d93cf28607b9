#include "qbd/solver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>

#include "linalg/gth.hpp"
#include "linalg/lu.hpp"
#include "linalg/spectral.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::qbd {

QbdSolution::QbdSolution(std::vector<Vector> boundary_pi, Matrix r)
    : boundary_pi_(std::move(boundary_pi)), r_(std::move(r)) {
  GS_ASSERT(!boundary_pi_.empty());
  i_minus_r_inv_ = linalg::inverse(Matrix::identity(r_.rows()) - r_);
}

QbdSolution::QbdSolution(std::vector<Vector> boundary_pi, Matrix r,
                         Matrix i_minus_r_inv)
    : boundary_pi_(std::move(boundary_pi)),
      r_(std::move(r)),
      i_minus_r_inv_(std::move(i_minus_r_inv)) {
  GS_ASSERT(!boundary_pi_.empty());
  GS_ASSERT(i_minus_r_inv_.rows() == r_.rows() &&
            i_minus_r_inv_.cols() == r_.cols());
}

double QbdSolution::spectral_radius_r() const {
  return linalg::spectral_radius(r_).radius;
}

QbdSolution::TailScan::TailScan(const QbdSolution& sol)
    : sol_(sol),
      v_(sol.boundary_pi_.back()),
      w_(sol.i_minus_r_inv_ * linalg::ones(sol.r_.rows())) {}

double QbdSolution::TailScan::next() {
  // tail_mass_sequence pushes dot(v, w) first and advances v afterwards;
  // doing the advance lazily at the top of the next call consumes the
  // exact same multiply chain, minus the final multiply the eager loop
  // also skips.
  if (first_) {
    first_ = false;
  } else {
    linalg::multiply_left_into(next_v_, v_, sol_.r_);
    v_.swap(next_v_);
  }
  return linalg::dot(v_, w_);
}

double QbdSolution::TailScan::decay_floor() const {
  double w_min = std::numeric_limits<double>::infinity();
  for (double x : w_) w_min = std::min(w_min, x);
  return w_min > 1.0 ? 1.0 - 1.0 / w_min : 0.0;
}

const Vector& QbdSolution::boundary_level(std::size_t i) const {
  GS_CHECK(i < boundary_pi_.size(), "boundary level index out of range");
  return boundary_pi_[i];
}

Vector QbdSolution::level(std::size_t i) const {
  const std::size_t b = boundary_pi_.size() - 1;
  if (i <= b) return boundary_pi_[i];
  Vector v = boundary_pi_[b];
  for (std::size_t k = b; k < i; ++k) v = v * r_;
  return v;
}

double QbdSolution::level_mass(std::size_t i) const {
  return linalg::sum(level(i));
}

double QbdSolution::mean_level() const {
  const std::size_t b = boundary_pi_.size() - 1;
  double acc = 0.0;
  for (std::size_t i = 1; i < b; ++i)
    acc += static_cast<double>(i) * linalg::sum(boundary_pi_[i]);
  const Vector& pib = boundary_pi_[b];
  const Vector ones = linalg::ones(r_.rows());
  // sum_{n>=0} (b+n) pi_b R^n e
  //   = b pi_b (I-R)^{-1} e + pi_b R (I-R)^{-2} e.
  const Vector m1 = i_minus_r_inv_ * ones;
  acc += static_cast<double>(b) * linalg::dot(pib, m1);
  const Vector m2 = i_minus_r_inv_ * m1;        // (I-R)^{-2} e
  acc += linalg::dot(pib * r_, m2);
  return acc;
}

double QbdSolution::second_moment_level() const {
  const std::size_t b = boundary_pi_.size() - 1;
  double acc = 0.0;
  for (std::size_t i = 1; i < b; ++i)
    acc += static_cast<double>(i * i) * linalg::sum(boundary_pi_[i]);
  const Vector& pib = boundary_pi_[b];
  const Vector ones = linalg::ones(r_.rows());
  const Vector m1 = i_minus_r_inv_ * ones;      // (I-R)^{-1} e
  const Vector m2 = i_minus_r_inv_ * m1;        // (I-R)^{-2} e
  const Vector m3 = i_minus_r_inv_ * m2;        // (I-R)^{-3} e
  const double bb = static_cast<double>(b);
  // sum_{n>=0} (b+n)^2 pi_b R^n e
  //   = b^2 S0 + 2b S1 + S2 with
  // S0 = pi_b (I-R)^{-1} e,
  // S1 = pi_b R (I-R)^{-2} e,
  // S2 = sum n^2 R^n = pi_b (R + R^2)(I-R)^{-3} e.
  const Vector pib_r = pib * r_;
  acc += bb * bb * linalg::dot(pib, m1);
  acc += 2.0 * bb * linalg::dot(pib_r, m2);
  acc += linalg::dot(pib_r, m3) + linalg::dot(pib_r * r_, m3);
  return acc;
}

double QbdSolution::tail_mass_from(std::size_t k) const {
  const std::size_t b = boundary_pi_.size() - 1;
  Vector v = boundary_pi_[b];
  for (std::size_t i = 0; i < k; ++i) v = v * r_;
  return linalg::dot(v, i_minus_r_inv_ * linalg::ones(r_.rows()));
}

std::vector<double> QbdSolution::tail_mass_sequence(
    std::size_t count) const {
  std::vector<double> out;
  out.reserve(count);
  Vector v = boundary_pi_.back();
  const Vector w = i_minus_r_inv_ * linalg::ones(r_.rows());
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(linalg::dot(v, w));
    if (k + 1 < count) v = v * r_;
  }
  return out;
}

Vector QbdSolution::repeating_phase_mass() const {
  return boundary_pi_.back() * i_minus_r_inv_;
}

double QbdSolution::total_mass() const {
  return total_mass(boundary_pi_, i_minus_r_inv_);
}

double QbdSolution::total_mass(const std::vector<Vector>& boundary_pi,
                               const Matrix& i_minus_r_inv) {
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < boundary_pi.size(); ++i)
    acc += linalg::sum(boundary_pi[i]);
  return acc + linalg::sum(boundary_pi.back() * i_minus_r_inv);
}

QbdSolution solve(const QbdProcess& process, const SolveOptions& opts,
                  Workspace* ws) {
  obs::Span span("qbd.solve");
  span.arg("boundary", static_cast<std::int64_t>(process.boundary_size()));
  span.arg("repeating", static_cast<std::int64_t>(process.repeating_size()));
  obs::count("qbd.solve.count");
  std::optional<Workspace> local;  // only when the caller passed none
  Workspace& w = ws ? *ws : local.emplace();
  const QbdBlocks& blk = process.blocks();

  if (!opts.skip_stability_check) {
    const auto drift = process.drift();
    if (!drift.stable) {
      throw NumericalError(
          "QBD is not positive recurrent: mean up-drift " +
          std::to_string(drift.up_drift) + " >= mean down-drift " +
          std::to_string(drift.down_drift) + " (Theorem 4.4)");
    }
  }

  const RSolveResult rres =
      solve_r_logreduction(blk.a0, blk.a1, blk.a2, opts.r_options, &w);
  return solve_with_r(process, rres.r, opts, &w);
}

namespace {

// sp(R) < 1 read off (I-R)^{-1} e: true when R >= 0 entrywise and every
// entry of `tail_weights` is positive (a NaN fails both tests).
bool admits(const Matrix& r, const Vector& tail_weights) {
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j)
      if (!(r(i, j) >= 0.0)) return false;
  for (double x : tail_weights)
    if (!(x > 0.0)) return false;
  return true;
}

[[noreturn]] void throw_singular_boundary() {
  throw NumericalError(
      "QBD boundary system is singular — the chain is likely reducible "
      "(check QbdProcess::is_irreducible())");
}

// Linear level reduction (Latouche–Ramaswami; Gaver–Jacobs–Latouche) of
// the balance system x M = 0, x = [x_0, ..., x_b], whose blocks are
// M_ii = D_i (i < b), M_bb = B11 + R A2 (already in w.ra2),
// M_{i,i+1} = U_i and M_{i+1,i} = L_i. Level i's column equations give
// x_i = x_{i+1} P_i with
//   S_0 = M_00,  P_i = -M_{i+1,i} S_i^{-1},
//   S_{i+1} = M_{i+1,i+1} + P_i M_{i,i+1},
// leaving x_b S_b = 0 at the top. The boundary mass folds up the same
// way: sum_{i<=k} x_i e = x_k v_k with v_0 = e, v_i = e + P_{i-1} v_{i-1}.
// Leaves P_0..P_{b-1} in w.bnd_p, S_b in w.bnd_s and P_{b-1} v_{b-1} in
// w.bnd_pv (b >= 1).
//
// Each S_i (i < b) is the level-i block of the chain censored to levels
// >= i, a sub-generator whose exit rates are the arrivals, -S_i e = U_i e.
// linalg::GthFactor divides by it from its off-diagonal rates and those
// exit rates alone, never subtracting, so the P_i keep full relative
// accuracy under light load, where -S_i is close to singular: there a
// partial-pivot LU lost digits, or rejected valid chains as singular
// (tests/qbd/test_boundary_random.cpp, LightLoad*). -S_i is nonsingular
// for an irreducible chain, so a zero pivot means a reducible one.
void reduce_levels(const QbdBlocks& blk, Workspace& w) {
  const std::size_t b = blk.diag.size();
  w.bnd_p.resize(b);
  Matrix& s = w.bnd_s;
  Vector& v = w.bnd_v;
  Vector& pv = w.bnd_pv;
  Vector& exit = w.bnd_exit;
  v.assign(b > 0 ? blk.diag[0].rows() : 0, 1.0);
  for (std::size_t i = 0; i < b; ++i) {
    const Matrix& up = blk.up[i];
    exit.assign(up.rows(), 0.0);
    for (std::size_t k = 0; k < up.rows(); ++k)
      for (std::size_t j = 0; j < up.cols(); ++j) exit[k] += up(k, j);
    try {
      w.bnd_gth.factor(i == 0 ? blk.diag[0] : s, exit);
    } catch (const NumericalError&) {
      throw_singular_boundary();
    }
    Matrix& p = w.bnd_p[i];
    w.bnd_gth.solve_right_into(blk.down[i], p);

    // S_{i+1} = M_{i+1,i+1} + P_i U_i. Only the off-diagonal rates of an
    // interior S_{i+1} are read.
    linalg::multiply_into(w.bnd_tmp, p, up);
    s = i + 1 < b ? blk.diag[i + 1] : w.ra2;
    s += w.bnd_tmp;

    // v_{i+1} = e + P_i v_i.
    pv.assign(p.rows(), 0.0);
    for (std::size_t k = 0; k < p.rows(); ++k) {
      const double* row = p.data() + k * p.cols();
      double acc = 0.0;
      for (std::size_t j = 0; j < p.cols(); ++j) acc += row[j] * v[j];
      pv[k] = acc;
    }
    v.resize(pv.size());
    for (std::size_t k = 0; k < v.size(); ++k) v[k] = 1.0 + pv[k];
  }
}

}  // namespace

QbdSolution solve_with_r(const QbdProcess& process, const Matrix& r,
                         const SolveOptions& /*opts*/, Workspace* ws) {
  std::optional<Workspace> local;  // only when the caller passed none
  Workspace& w = ws ? *ws : local.emplace();
  const QbdBlocks& blk = process.blocks();

  obs::Span span("qbd.boundary");
  const std::size_t b = process.boundary_levels();
  const std::size_t d = process.repeating_size();
  obs::count("qbd.boundary.levels", b + 1);

  // Admission (see solve_with_r's contract): (I-R)^{-1} e, which the
  // normalization row needs anyway, is positive iff sp(R) < 1. A singular
  // I - R rethrows its LU error after the level reduction, so a reducible
  // boundary reports its own error first.
  Matrix i_minus_r_inv;
  Vector tail_weights;
  std::exception_ptr inverse_error;
  try {
    i_minus_r_inv = linalg::inverse(Matrix::identity(d) - r);
    tail_weights = i_minus_r_inv * linalg::ones(d);
  } catch (const NumericalError&) {
    inverse_error = std::current_exception();
  }
  if (inverse_error || !admits(r, tail_weights)) {
    const double radius = linalg::spectral_radius(r).radius;
    if (!(radius < 1.0)) {
      throw NumericalError("sp(R) = " + std::to_string(radius) +
                           " >= 1: chain is not positive recurrent");
    }
  }

  // Level b's block of the balance system (eqs. 21–22, 25–26): its own
  // rates plus the repeating tail folded back through R.
  linalg::multiply_into(w.ra2, r, blk.a2);
  w.ra2 += blk.b11;  // B11 + R A2
  reduce_levels(blk, w);

  // Top level: S_b^T x_b^T = 0 with the first equation replaced by the
  // normalization (eq. 24) x_b ((I-R)^{-1} e + P_{b-1} v_{b-1}) = 1 (the
  // balance equations have rank d-1 for an irreducible chain, so dropping
  // any single one is safe).
  if (inverse_error) std::rethrow_exception(inverse_error);
  const Matrix& s_top = b > 0 ? w.bnd_s : w.ra2;
  Matrix& st = w.bnd_st;
  st.assign_zero(d, d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j) st(i, j) = s_top(j, i);
  double w_max = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    st(0, j) = b > 0 ? tail_weights[j] + w.bnd_pv[j] : tail_weights[j];
    w_max = std::max(w_max, std::fabs(st(0, j)));
  }
  // The weights carry the mass of every level below b relative to level
  // b's, ~1 / P(level b): under light load they dwarf the rates of the
  // other rows, and the LU's relative pivot test would reject every rate
  // pivot. Scale the row, and its right-hand side, by the power of two
  // that brings its largest entry into [1, 2): exact, so x_b is unchanged
  // whenever the pivot order is.
  Vector rhs(d, 0.0);
  rhs[0] = 1.0;
  if (w_max > 0.0 && std::isfinite(w_max)) {
    const int shift = -std::ilogb(w_max);
    for (std::size_t j = 0; j < d; ++j) st(0, j) = std::ldexp(st(0, j), shift);
    rhs[0] = std::ldexp(1.0, shift);
  }

  std::vector<Vector> boundary(b + 1);
  try {
    w.bnd_lu.factor(st);
  } catch (const NumericalError&) {
    throw_singular_boundary();
  }
  boundary[b] = w.bnd_lu.solve(rhs);
  // Back substitution x_i = x_{i+1} P_i.
  for (std::size_t i = b; i-- > 0;)
    linalg::multiply_left_into(boundary[i], boundary[i + 1], w.bnd_p[i]);

  // Numerical hygiene: clip round-off negatives before normalizing; a
  // genuinely negative entry (or a NaN) means the boundary system was
  // ill-conditioned.
  for (std::size_t i = 0; i <= b; ++i)
    for (double& x : boundary[i]) {
      if (!(x >= -1e-9)) {
        throw NumericalError("QBD boundary vector has entry " +
                             std::to_string(x) + " < 0 at level " +
                             std::to_string(i) +
                             " — boundary system is ill-conditioned");
      }
      x = std::max(x, 0.0);
    }

  // Renormalize exactly (clipping and round-off can leave total mass a few
  // ulps off 1).
  // The (I-R)^{-1} computed for the normalization row is bit-for-bit the
  // inverse the QbdSolution constructor would recompute (same r, same
  // deterministic kernels), so both the mass check and the returned
  // solution reuse it instead of paying two more O(d^3) factorizations.
  const double total = QbdSolution::total_mass(boundary, i_minus_r_inv);
  if (!(std::fabs(total - 1.0) <= 1e-6)) {
    throw NumericalError(
        "QBD solution mass " + std::to_string(total) +
        " deviates from 1 — boundary system is ill-conditioned");
  }
  for (auto& lvl : boundary)
    for (double& x : lvl) x /= total;
  return QbdSolution(std::move(boundary), r, std::move(i_minus_r_inv));
}

}  // namespace gs::qbd
