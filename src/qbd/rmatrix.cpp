#include "qbd/rmatrix.hpp"

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::qbd {

namespace {

// ws.iu = I - u, written elementwise into reused storage.
void identity_minus_into(Matrix& out, const Matrix& u) {
  const std::size_t d = u.rows();
  out.assign_zero(d, d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j)
      out(i, j) = (i == j ? 1.0 : 0.0) - u(i, j);
}

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

// out = the listed rows of a, in order.
void gather_rows(Matrix& out, const Matrix& a,
                 const std::vector<std::size_t>& rows) {
  out.assign_zero(rows.size(), a.cols());
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t j = 0; j < a.cols(); ++j) out(r, j) = a(rows[r], j);
}

// out = the d-column matrix whose column cols[c] is column c of
// `compact` and whose other columns are +0.0.
void scatter_columns(Matrix& out, const Matrix& compact,
                     const std::vector<std::size_t>& cols, std::size_t d) {
  out.assign_zero(compact.rows(), d);
  for (std::size_t i = 0; i < compact.rows(); ++i)
    for (std::size_t c = 0; c < cols.size(); ++c)
      out(i, cols[c]) = compact(i, c);
}

}  // namespace

double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2, Workspace& ws) {
  // (A0 + R A1) + (R R) A2, associated exactly as the expression
  // a0 + r*a1 + r*r*a2 the residual is defined by.
  linalg::multiply_into(ws.res_ra1, r, a1);
  ws.res_acc = a0;
  ws.res_acc += ws.res_ra1;
  linalg::multiply_into(ws.res_rr, r, r);
  linalg::multiply_into(ws.res_rra2, ws.res_rr, a2);
  ws.res_acc += ws.res_rra2;
  return ws.res_acc.max_abs();
}

double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2) {
  Workspace ws;
  return r_residual(r, a0, a1, a2, ws);
}

RSolveResult solve_r_logreduction(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts, Workspace* ws) {
  const std::size_t d = a1.rows();
  GS_CHECK(a0.rows() == d && a2.rows() == d, "R solve: block size mismatch");

  obs::Span span("qbd.rsolve.logreduction");
  span.arg("d", static_cast<std::int64_t>(d));
  obs::count("qbd.rsolve.logreduction.count");

  std::optional<Workspace> local;  // only when the caller passed none
  Workspace& w = ws ? *ws : local.emplace();
  // Stage spans: setup (LU of -A1, H/L seeds), the squaring loop, and the
  // final R-from-G stage plus residual check.
  std::optional<obs::Span> stage;
  stage.emplace("qbd.rsolve.logreduction.setup");

  // G = (-A1 - A0 G)^{-1} A2, so G, L and every product the loop forms
  // from them vanish outside A2's nonzero columns: the loop carries those
  // r live columns only (see the header comment).
  nonzero_columns(a2, w.live);
  span.arg("cols", static_cast<std::int64_t>(w.live.size()));
  obs::count("qbd.rsolve.logreduction.live_cols", w.live.size());

  w.iu = a1;
  w.iu *= -1.0;
  w.lu.factor(w.iu);
  // H: one-step up kernel; L: one-step down kernel of the censored chain,
  // on A2's live columns.
  w.lu.solve_into(a0, w.h);
  gather_columns(w.tmp, a2, w.live);
  w.lu.solve_into(w.tmp, w.l);
  stage.emplace("qbd.rsolve.logreduction.loop");

  RSolveResult out;
  w.g = w.l;
  w.t = w.h;
  // B-side packs of H and L persist across the two grouped passes of an
  // iteration — pass 2 packs the *new* iterates it reads, which is exactly
  // what pass 1 of the next iteration needs.
  w.gp_h_b.pack(w.h);
  w.gp_l_b.pack(w.l);
  bool converged = false;
  for (int it = 1; it <= opts.max_iter; ++it) {
    // U = H L + L H; the squared kernels H^2, L^2 are formed before H and
    // L are overwritten by the solves against (I - U). L H and L^2 read
    // only the live rows of H and L: L's other columns are zero.
    gather_rows(w.h_live, w.h, w.live);
    gather_rows(w.l_live, w.l, w.live);
    // Squaring pass: four products over two packed left operands, tiles
    // amortized across all four.
    w.gp_h_a.pack(w.h);
    w.gp_l_a.pack(w.l);
    w.gp_h_live_b.pack(w.h_live);
    w.gp_l_live_b.pack(w.l_live);
    const linalg::GemmOp squaring[4] = {
        {&w.hl, &w.gp_h_a, &w.gp_l_b},       // H L
        {&w.lh, &w.gp_l_a, &w.gp_h_live_b},  // L H
        {&w.hh, &w.gp_h_a, &w.gp_h_b},       // H^2
        {&w.ll, &w.gp_l_a, &w.gp_l_live_b},  // L^2
    };
    linalg::gemm_grouped(squaring, 4);
    obs::count("qbd.rsolve.logreduction.grouped_passes");
    scatter_columns(w.u, w.hl, w.live, d);
    w.u += w.lh;
    identity_minus_into(w.iu, w.u);
    w.lu.factor(w.iu);
    w.lu.solve_into(w.hh, w.h);
    w.lu.solve_into(w.ll, w.l);
    // Carry pass: T against the fresh H and L.
    w.gp_t_a.pack(w.t);
    w.gp_l_b.pack(w.l);
    w.gp_h_b.pack(w.h);
    const linalg::GemmOp carry[2] = {
        {&w.incr, &w.gp_t_a, &w.gp_l_b},  // T L
        {&w.tmp, &w.gp_t_a, &w.gp_h_b},   // T H
    };
    linalg::gemm_grouped(carry, 2);
    obs::count("qbd.rsolve.logreduction.grouped_passes");
    w.g += w.incr;
    std::swap(w.t, w.tmp);
    out.iterations = it;
    // Quadratic convergence: both the increment just added and the carry
    // matrix T collapse to zero.
    if (w.incr.max_abs() <= opts.tol && w.t.max_abs() <= opts.tol) {
      converged = true;
      break;
    }
  }

  obs::count("qbd.rsolve.logreduction.iterations",
             static_cast<std::uint64_t>(out.iterations));
  span.arg("iterations", static_cast<std::int64_t>(out.iterations));
  stage.emplace("qbd.rsolve.logreduction.final");

  // U = A1 + A0 G; R solves R (-U) = A0 (right division against the
  // shared factorization instead of an explicit inverse).
  linalg::multiply_into(w.hl, a0, w.g);
  scatter_columns(w.tmp, w.hl, w.live, d);
  w.iu = a1;
  w.iu += w.tmp;
  w.iu *= -1.0;
  w.lu.factor(w.iu);
  w.lu.solve_right_into(a0, out.r);
  scatter_columns(out.g, w.g, w.live, d);
  out.residual = r_residual(out.r, a0, a1, a2, w);
  stage.reset();
  if (!converged) {
    throw NumericalError(
        "logarithmic reduction for R exhausted max_iter=" +
        std::to_string(opts.max_iter) + " (last increment " +
        std::to_string(w.incr.max_abs()) + " > tol " +
        std::to_string(opts.tol) + ", residual " +
        std::to_string(out.residual) + ")");
  }
  if (out.residual > 1e-8 * std::max(1.0, a1.max_abs())) {
    throw NumericalError(
        "logarithmic reduction for R did not converge (residual " +
        std::to_string(out.residual) + " after " +
        std::to_string(out.iterations) + " iterations)");
  }
  return out;
}

}  // namespace gs::qbd
