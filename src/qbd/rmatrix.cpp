#include "qbd/rmatrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::qbd {

namespace {

// Ascending indices of the columns of `a` that hold a nonzero entry.
void nonzero_columns(const Matrix& a, std::vector<std::size_t>& cols) {
  cols.clear();
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      if (a(i, j) != 0.0) {
        cols.push_back(j);
        break;
      }
}

// out = the listed columns of a, in order.
void gather_columns(Matrix& out, const Matrix& a,
                    const std::vector<std::size_t>& cols) {
  out.assign_zero(a.rows(), cols.size());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t c = 0; c < cols.size(); ++c) out(i, c) = a(i, cols[c]);
}

// w.m = A1 + A0 G, G = X E^T: A0 X (left in w.a0x) added onto A1's live
// columns.
void form_m(const Matrix& a0, const Matrix& a1, Workspace& w) {
  linalg::multiply_into(w.a0x, a0, w.x);
  w.m = a1;
  for (std::size_t i = 0; i < a1.rows(); ++i)
    for (std::size_t c = 0; c < w.live.size(); ++c)
      w.m(i, w.live[c]) += w.a0x(i, c);
}

// Householder reflection P = I - beta v v^T with P x = (*, 0, ..., 0)
// for the `len` entries of x, applied as the similarity T <- P T P to
// rows and columns [k, k + len) of `t` (rows on columns [j0, n), columns
// on rows [0, i1)) and accumulated into Q <- Q P.
void reflect(Matrix& t, Matrix& q, std::size_t k, const double* x,
             std::size_t len, std::size_t j0, std::size_t i1) {
  double v[3];
  double norm2 = 0.0;
  for (std::size_t i = 0; i < len; ++i) norm2 += x[i] * x[i];
  const double alpha = x[0] > 0.0 ? -std::sqrt(norm2) : std::sqrt(norm2);
  double vv = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = i == 0 ? x[0] - alpha : x[i];
    vv += v[i] * v[i];
  }
  if (vv == 0.0) return;
  const double beta = 2.0 / vv;
  const std::size_t n = t.rows();
  for (std::size_t j = j0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < len; ++i) s += v[i] * t(k + i, j);
    s *= beta;
    for (std::size_t i = 0; i < len; ++i) t(k + i, j) -= s * v[i];
  }
  for (Matrix* m : {&t, &q}) {
    const std::size_t rows = m == &t ? i1 : n;
    for (std::size_t i = 0; i < rows; ++i) {
      double s = 0.0;
      for (std::size_t l = 0; l < len; ++l) s += (*m)(i, k + l) * v[l];
      s *= beta;
      for (std::size_t l = 0; l < len; ++l) (*m)(i, k + l) -= s * v[l];
    }
  }
}

// Real Schur form K = Q T Q^T of the r x r w.k: T (w.sch_t) upper
// quasi-triangular — 1 x 1 blocks for real eigenvalues, 2 x 2 blocks for
// complex pairs — and Q (w.sch_q) orthogonal. Householder reduction to
// Hessenberg form, then Francis double-shift QR steps (an exceptional
// shift every tenth step on one window) with deflation; a deflated 2 x 2
// block with real eigenvalues is rotated to triangular form.
void real_schur(Workspace& w) {
  Matrix& t = w.sch_t;
  Matrix& q = w.sch_q;
  const std::size_t n = w.k.rows();
  t = w.k;
  q.assign_zero(n, n);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  const double norm = t.max_abs();
  // Hessenberg form: zero each column below its subdiagonal from the
  // bottom up, one 2-entry reflection per entry.
  double x[3];
  for (std::size_t c = 0; c + 2 < n; ++c)
    for (std::size_t i = n - 2; i > c; --i) {
      x[0] = t(i, c);
      x[1] = t(i + 1, c);
      reflect(t, q, i, x, 2, c, n);
      t(i + 1, c) = 0.0;
    }
  const double eps = std::numeric_limits<double>::epsilon();
  const auto negligible = [&](std::size_t l) {
    const double scale = std::fabs(t(l, l)) + std::fabs(t(l - 1, l - 1));
    return std::fabs(t(l, l - 1)) <= eps * (scale > 0.0 ? scale : norm);
  };
  int steps = 0, window_steps = 0;
  std::size_t hi = n - 1;
  while (hi > 0) {
    std::size_t lo = hi;
    while (lo > 0 && !negligible(lo)) --lo;
    if (lo > 0) t(lo, lo - 1) = 0.0;
    if (lo == hi) {  // a converged 1 x 1 block
      --hi;
      window_steps = 0;
      continue;
    }
    if (lo + 1 == hi) {  // a converged 2 x 2 block
      const std::size_t j = lo;
      const double a = t(j, j), b = t(j, j + 1), c = t(j + 1, j),
                   d = t(j + 1, j + 1);
      const double half = 0.5 * (a - d);
      const double disc = half * half + b * c;
      if (disc >= 0.0) {
        // Real eigenvalues: reflect an eigenvector onto e1.
        const double root = std::sqrt(disc);
        const double lambda = d + (half >= 0.0 ? half + root : half - root);
        double v[2] = {b, lambda - a};
        if (std::fabs(lambda - d) + std::fabs(c) >
            std::fabs(v[0]) + std::fabs(v[1])) {
          v[0] = lambda - d;
          v[1] = c;
        }
        reflect(t, q, j, v, 2, j, j + 2);
        t(j + 1, j) = 0.0;
      }
      if (hi < 2) break;
      hi -= 2;
      window_steps = 0;
      continue;
    }
    if (++steps > 60 * static_cast<int>(n))
      throw NumericalError("Schur form of the Newton system did not converge");
    // Francis double-shift step on rows and columns [lo, hi]: the shifts
    // are the eigenvalues of the trailing 2 x 2 block (sum s, product p).
    const std::size_t m = hi;
    double s = t(m - 1, m - 1) + t(m, m);
    double p = t(m - 1, m - 1) * t(m, m) - t(m - 1, m) * t(m, m - 1);
    if (++window_steps % 10 == 0) {
      const double e = std::fabs(t(m, m - 1)) + std::fabs(t(m - 1, m - 2));
      s = 1.5 * e;
      p = e * e;
    }
    x[0] = t(lo, lo) * t(lo, lo) + t(lo, lo + 1) * t(lo + 1, lo) -
           s * t(lo, lo) + p;
    x[1] = t(lo + 1, lo) * (t(lo, lo) + t(lo + 1, lo + 1) - s);
    x[2] = t(lo + 1, lo) * t(lo + 2, lo + 1);
    for (std::size_t k = lo; k + 2 <= m; ++k) {
      reflect(t, q, k, x, 3, k > lo ? k - 1 : lo, std::min(k + 4, m + 1));
      if (k > lo) t(k + 1, k - 1) = t(k + 2, k - 1) = 0.0;
      x[0] = t(k + 1, k);
      x[1] = t(k + 2, k);
      if (k + 3 <= m) x[2] = t(k + 3, k);
    }
    reflect(t, q, m - 1, x, 2, m - 2, m + 1);
    t(m, m - 2) = 0.0;
  }
}

// The Newton step D: M D + A0 D K = -F, the d r x d r system
// J vec(D) = -vec(F) with J = I_r (x) M + K^T (x) A0, into w.f. With
// K = Q T Q^T (real Schur), Y = D Q solves M Y + A0 Y T = -F Q, block
// upper triangular in T's diagonal blocks (Bartels-Stewart): one d x d
// solve against M + T(j, j) A0 per real eigenvalue of K and one 2d x 2d
// solve per complex pair, instead of one LU of J — (d r)^3 / 3
// operations, 20 GFLOP per step on a light-load chain with d = 81 and
// r = 48.
void newton_step(const Matrix& a0, Workspace& w) {
  const std::size_t d = w.m.rows(), r = w.live.size();
  for (std::size_t c2 = 0; c2 < r; ++c2)
    for (std::size_t c = 0; c < r; ++c) w.k(c2, c) = w.x(w.live[c2], c);
  real_schur(w);
  const Matrix& t = w.sch_t;
  const Matrix& q = w.sch_q;
  w.y.assign_zero(d, r);
  w.a0y.assign_zero(d, r);
  for (std::size_t j = 0; j < r;) {
    const std::size_t bs = j + 1 < r && t(j + 1, j) != 0.0 ? 2 : 1;
    const std::size_t n = bs * d;
    // Right-hand side: -(F Q)_jj - sum_{i<j} T(i, jj) A0 y_i.
    w.rhs.assign(n, 0.0);
    for (std::size_t b = 0; b < bs; ++b)
      for (std::size_t row = 0; row < d; ++row) {
        double acc = 0.0;
        for (std::size_t c = 0; c < r; ++c) acc -= w.f(row, c) * q(c, j + b);
        for (std::size_t i = 0; i < j; ++i) acc -= t(i, j + b) * w.a0y(row, i);
        w.rhs[b * d + row] = acc;
      }
    // Block (b, b2) of the system: [b == b2] M + T(j + b2, j + b) A0.
    w.sys.assign_zero(n, n);
    for (std::size_t b = 0; b < bs; ++b)
      for (std::size_t b2 = 0; b2 < bs; ++b2) {
        const double tk = t(j + b2, j + b);
        for (std::size_t row = 0; row < d; ++row)
          for (std::size_t col = 0; col < d; ++col)
            w.sys(b * d + row, b2 * d + col) =
                (b == b2 ? w.m(row, col) : 0.0) + tk * a0(row, col);
      }
    w.lu.factor(w.sys);
    w.lu.solve_into(w.rhs, w.sol);
    for (std::size_t b = 0; b < bs; ++b)
      for (std::size_t row = 0; row < d; ++row) {
        w.y(row, j + b) = w.sol[b * d + row];
        double acc = 0.0;
        for (std::size_t col = 0; col < d; ++col)
          acc += a0(row, col) * w.sol[b * d + col];
        w.a0y(row, j + b) = acc;
      }
    j += bs;
  }
  // D = Y Q^T.
  for (std::size_t row = 0; row < d; ++row)
    for (std::size_t c = 0; c < r; ++c) {
      double acc = 0.0;
      for (std::size_t j = 0; j < r; ++j) acc += w.y(row, j) * q(c, j);
      w.f(row, c) = acc;
    }
}

struct NewtonRun {
  int steps = 0;
  bool converged = false;
  double last_step = std::numeric_limits<double>::infinity();
};

// Newton's method on F(X) = A2 E + A1 X + A0 X K from the X in w.x, which
// it updates in place. Stops on a step of at most opts.tol, on a
// non-finite step, or after opts.max_iter steps.
NewtonRun newton(const Matrix& a0, const Matrix& a1,
                 const RSolveOptions& opts, Workspace& w) {
  const std::size_t d = a1.rows();
  const std::size_t r = w.live.size();
  NewtonRun run;
  if (r == 0) {  // A2 = 0: G = 0 solves the equation exactly
    run.converged = true;
    run.last_step = 0.0;
    return run;
  }
  w.k.assign_zero(r, r);
  for (int it = 1; it <= opts.max_iter; ++it) {
    // F = A2 E + A1 X + (A0 X) K, K(c2, c) = X(live[c2], c).
    form_m(a0, a1, w);
    linalg::multiply_into(w.f, a1, w.x);
    w.f += w.a2e;
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t c = 0; c < r; ++c) {
        double acc = 0.0;
        for (std::size_t c2 = 0; c2 < r; ++c2)
          acc += w.a0x(i, c2) * w.x(w.live[c2], c);
        w.f(i, c) += acc;
      }
    newton_step(a0, w);
    // The largest change, NaN included: a NaN step must not pass for a
    // small one.
    double size = 0.0;
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t c = 0; c < r; ++c) {
        const double step = w.f(i, c);
        w.x(i, c) += step;
        if (!(std::fabs(step) <= size)) size = std::fabs(step);
      }
    run.steps = it;
    run.last_step = size;
    if (size <= opts.tol) {
      run.converged = true;
      break;
    }
    if (!std::isfinite(size)) break;
  }
  return run;
}

// A warm start's X is the minimal solution only if G = X E^T is
// sub-stochastic: no entry below -tol (rounding leaves tiny negatives
// where G is zero; a NaN fails) and no row sum above 1. Every other
// non-negative solution lies above G, so on a recurrent chain, whose G is
// stochastic, it has a row sum above 1.
bool minimal_looking(const Matrix& x, double tol) {
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (!(x(i, c) >= -tol)) return false;
      sum += x(i, c);
    }
    if (!(sum <= 1.0 + 1e-10)) return false;
  }
  return true;
}

}  // namespace

double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2, Workspace& ws) {
  // (A0 + R A1) + R (R A2), the last term on A2's live columns only.
  linalg::multiply_into(ws.res_ra1, r, a1);
  ws.res_acc = a0;
  ws.res_acc += ws.res_ra1;
  nonzero_columns(a2, ws.res_live);
  gather_columns(ws.res_a2e, a2, ws.res_live);
  linalg::multiply_into(ws.res_ra2, r, ws.res_a2e);
  linalg::multiply_into(ws.res_rra2, r, ws.res_ra2);
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t c = 0; c < ws.res_live.size(); ++c)
      ws.res_acc(i, ws.res_live[c]) += ws.res_rra2(i, c);
  return ws.res_acc.max_abs();
}

double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2) {
  Workspace ws;
  return r_residual(r, a0, a1, a2, ws);
}

RSolveResult solve_r(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                     const RSolveOptions& opts, Workspace* ws) {
  const std::size_t d = a1.rows();
  GS_CHECK(a0.rows() == d && a2.rows() == d, "R solve: block size mismatch");

  obs::Span span("qbd.rsolve.newton");
  span.arg("d", static_cast<std::int64_t>(d));
  obs::count("qbd.rsolve.newton.count");

  std::optional<Workspace> local;  // only when the caller passed none
  Workspace& w = ws ? *ws : local.emplace();
  // Stage spans: setup (live columns, warm-start check), the Newton steps
  // of every start, and the final R-from-G stage plus residual check.
  std::optional<obs::Span> stage;
  stage.emplace("qbd.rsolve.newton.setup");

  // G = N^{-1} A2 vanishes outside A2's nonzero columns: Newton carries
  // those r live columns only (see the header comment). The previous X
  // seeds this solve when it was solved on the same columns.
  w.prev_live.swap(w.live);
  nonzero_columns(a2, w.live);
  const std::size_t r = w.live.size();
  span.arg("cols", static_cast<std::int64_t>(r));
  obs::count("qbd.rsolve.newton.live_cols", r);
  gather_columns(w.a2e, a2, w.live);
  const bool warm = w.warm && w.live == w.prev_live && w.x.rows() == d &&
                    w.x.cols() == r;
  w.warm = false;  // until this solve succeeds
  span.arg("warm", static_cast<std::int64_t>(warm));
  stage.emplace("qbd.rsolve.newton.loop");

  RSolveResult out;
  NewtonRun run;
  bool cold = !warm;
  if (warm) {
    obs::count("qbd.rsolve.newton.warm");
    try {
      run = newton(a0, a1, opts, w);
    } catch (const NumericalError&) {
      run.converged = false;  // a singular step or an unconverged Schur form
    }
    out.iterations = run.steps;
    if (!run.converged || !minimal_looking(w.x, opts.tol)) {
      obs::count("qbd.rsolve.newton.cold_fallback");
      span.arg("fallback", static_cast<std::int64_t>(1));
      cold = true;
    }
  }
  if (cold) {
    // From X = 0 the Newton iterates rise monotonically to the minimal
    // solution (Latouche 1994).
    w.x.assign_zero(d, r);
    run = newton(a0, a1, opts, w);
    out.iterations += run.steps;
  }

  obs::count("qbd.rsolve.newton.iterations",
             static_cast<std::uint64_t>(out.iterations));
  span.arg("iterations", static_cast<std::int64_t>(out.iterations));
  if (!std::isfinite(run.last_step)) {
    throw NumericalError("Newton iteration for R diverged (non-finite step "
                         "after " +
                         std::to_string(run.steps) + " steps)");
  }
  stage.emplace("qbd.rsolve.newton.final");
  // G >= 0: a negative entry is rounding at a zero of G, and left in
  // place it could turn a tiny entry of R negative.
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t c = 0; c < r; ++c) w.x(i, c) = std::max(w.x(i, c), 0.0);

  // N = -(A1 + A0 G); R solves R N = A0 (right division against the
  // factorization instead of an explicit inverse).
  form_m(a0, a1, w);
  w.m *= -1.0;
  w.lu.factor(w.m);
  w.lu.solve_right_into(a0, out.r);
  out.g.assign_zero(d, d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t c = 0; c < r; ++c) out.g(i, w.live[c]) = w.x(i, c);
  out.residual = r_residual(out.r, a0, a1, a2, w);
  stage.reset();
  if (!run.converged) {
    throw NumericalError(
        "Newton iteration for R exhausted max_iter=" +
        std::to_string(opts.max_iter) + " (last step " +
        std::to_string(run.last_step) + " > tol " + std::to_string(opts.tol) +
        ", residual " + std::to_string(out.residual) + ")");
  }
  if (out.residual > 1e-8 * std::max(1.0, a1.max_abs())) {
    throw NumericalError(
        "Newton iteration for R did not converge (residual " +
        std::to_string(out.residual) + " after " +
        std::to_string(out.iterations) + " steps)");
  }
  w.warm = true;
  return out;
}

RSolveResult solve_r_logreduction(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2, const RSolveOptions& opts,
                                  Workspace* ws) {
  return solve_r(a0, a1, a2, opts, ws);
}

}  // namespace gs::qbd
