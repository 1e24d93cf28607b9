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

// CSR stops paying once a block is about half full: compressing costs a
// full O(d^2) scan and the sparse product then visits nearly every entry
// anyway. Gating is bitwise-invisible (the sparse kernels reproduce the
// dense accumulation order exactly), so this is purely a cost model.
constexpr double kCsrDensityGate = 0.5;

double dense_fraction(const Matrix& m) {
  const std::size_t total = m.rows() * m.cols();
  if (total == 0) return 0.0;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m(i, j) != 0.0) ++nnz;
  return static_cast<double>(nnz) / static_cast<double>(total);
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
                  const Matrix& a2, Workspace& ws, bool sparse) {
  // (A0 + R A1) + (R R) A2, associated exactly as the expression
  // a0 + r*a1 + r*r*a2 the residual is defined by.
  if (sparse) {
    linalg::multiply_into(ws.res_ra1, r, ws.a1_csr);
  } else {
    linalg::multiply_into(ws.res_ra1, r, a1);
  }
  ws.res_acc = a0;
  ws.res_acc += ws.res_ra1;
  linalg::multiply_into(ws.res_rr, r, r);
  if (sparse) {
    linalg::multiply_into(ws.res_rra2, ws.res_rr, ws.a2_csr);
  } else {
    linalg::multiply_into(ws.res_rra2, ws.res_rr, a2);
  }
  ws.res_acc += ws.res_rra2;
  return ws.res_acc.max_abs();
}

double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2) {
  Workspace ws;
  return r_residual(r, a0, a1, a2, ws, /*sparse=*/false);
}

RSolveResult solve_r_substitution(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts, Workspace* ws) {
  const std::size_t d = a1.rows();
  GS_CHECK(a0.rows() == d && a2.rows() == d, "R solve: block size mismatch");

  obs::Span span("qbd.rsolve.substitution");
  span.arg("d", static_cast<std::int64_t>(d));
  obs::count("qbd.rsolve.substitution.count");

  Workspace local;
  Workspace& w = ws ? *ws : local;

  // A1's diagonal dominates its off-diagonal plus all exits, so -A1 is an
  // M-matrix and invertible; factor it once and right-divide per
  // iteration instead of forming the explicit inverse.
  Matrix neg_a1 = a1;
  neg_a1 *= -1.0;
  const linalg::Lu lu(neg_a1);

  // Substitution touches the *structured* A2 every iteration, so CSR pays
  // as long as the blocks really are sparse (a1 rides along for the final
  // residual); dense inputs skip compression entirely.
  const bool use_sparse =
      opts.sparse &&
      0.5 * (dense_fraction(a1) + dense_fraction(a2)) <= kCsrDensityGate;
  if (use_sparse) {
    w.a1_csr.assign_from_dense(a1);
    w.a2_csr.assign_from_dense(a2);
  }

  RSolveResult out;
  w.r_cur.assign_zero(d, d);
  bool converged = false;
  double delta = 0.0;
  for (int it = 1; it <= opts.max_iter; ++it) {
    // R_next (-A1) = A0 + R (R A2). Associating the quadratic term as
    // R (R A2) lets the sparse path recompress R A2 — its nonzero columns
    // are confined to A2's — and both paths share the association so they
    // stay bitwise identical to each other.
    if (use_sparse) {
      linalg::multiply_into(w.r_t, w.r_cur, w.a2_csr);
      w.rt_csr.assign_from_dense(w.r_t);
      linalg::multiply_into(w.r_num, w.r_cur, w.rt_csr);
    } else {
      linalg::multiply_into(w.r_t, w.r_cur, a2);
      linalg::multiply_into(w.r_num, w.r_cur, w.r_t);
    }
    w.r_num += a0;
    lu.solve_right_into(w.r_num, w.r_next);
    delta = linalg::max_abs_diff(w.r_next, w.r_cur);
    std::swap(w.r_cur, w.r_next);
    out.iterations = it;
    if (delta <= opts.tol) {
      converged = true;
      break;
    }
  }
  obs::count("qbd.rsolve.substitution.iterations",
             static_cast<std::uint64_t>(out.iterations));
  span.arg("iterations", static_cast<std::int64_t>(out.iterations));
  out.residual = r_residual(w.r_cur, a0, a1, a2, w, use_sparse);
  if (!converged) {
    throw NumericalError(
        "successive substitution for R exhausted max_iter=" +
        std::to_string(opts.max_iter) + " (last step " +
        std::to_string(delta) + " > tol " + std::to_string(opts.tol) +
        ", residual " + std::to_string(out.residual) +
        "); the chain is likely not positive recurrent");
  }
  if (out.residual > 1e-8 * std::max(1.0, a1.max_abs())) {
    throw NumericalError(
        "successive substitution for R converged in " +
        std::to_string(out.iterations) + " iterations but the residual " +
        std::to_string(out.residual) +
        " fails the defining equation; the chain is likely not positive "
        "recurrent");
  }
  out.r = w.r_cur;
  return out;
}

RSolveResult solve_r_logreduction(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts, Workspace* ws) {
  const std::size_t d = a1.rows();
  GS_CHECK(a0.rows() == d && a2.rows() == d, "R solve: block size mismatch");

  obs::Span span("qbd.rsolve.logreduction");
  span.arg("d", static_cast<std::int64_t>(d));
  obs::count("qbd.rsolve.logreduction.count");

  Workspace local;
  Workspace& w = ws ? *ws : local;
  // Stage spans reproduce the old RSolveProfile split: setup (LU of -A1,
  // H/L seeds, CSR compressions), the squaring loop, and the final
  // R-from-G stage plus residual check.
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
  w.lu.solve_into(a0, w.h, opts.tiled);
  gather_columns(w.tmp, a2, w.live);
  w.lu.solve_into(w.tmp, w.l, opts.tiled);

  // The squaring products are products of (generically dense) solves, so
  // the loop below cannot use CSR. Only the final stage reads the
  // structured A0, and only the residual reads A1/A2 — gate each
  // independently so a dense block never pays for compression it cannot
  // amortize.
  const bool sparse_final = opts.sparse && dense_fraction(a0) <= kCsrDensityGate;
  const bool sparse_resid =
      opts.sparse &&
      0.5 * (dense_fraction(a1) + dense_fraction(a2)) <= kCsrDensityGate;
  if (sparse_final) w.a0_csr.assign_from_dense(a0);
  if (sparse_resid) {
    w.a1_csr.assign_from_dense(a1);
    w.a2_csr.assign_from_dense(a2);
  }
  stage.emplace("qbd.rsolve.logreduction.loop");

  RSolveResult out;
  w.g = w.l;
  w.t = w.h;
  // Tiled path: B-side packs of H and L persist across the two grouped
  // passes of an iteration — pass 2 packs the *new* iterates it reads,
  // which is exactly what pass 1 of the next iteration needs.
  if (opts.tiled) {
    w.gp_h_b.pack(w.h);
    w.gp_l_b.pack(w.l);
  }
  bool converged = false;
  for (int it = 1; it <= opts.max_iter; ++it) {
    // U = H L + L H; the squared kernels H^2, L^2 are formed before H and
    // L are overwritten by the solves against (I - U). L H and L^2 read
    // only the live rows of H and L: L's other columns are zero.
    gather_rows(w.h_live, w.h, w.live);
    gather_rows(w.l_live, w.l, w.live);
    if (opts.tiled) {
      // Squaring pass: four products over two packed left operands,
      // tiles amortized across all four.
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
    } else {
      linalg::multiply_into(w.hl, w.h, w.l);
      linalg::multiply_into(w.lh, w.l, w.h_live);
      linalg::multiply_into(w.hh, w.h, w.h);
      linalg::multiply_into(w.ll, w.l, w.l_live);
    }
    scatter_columns(w.u, w.hl, w.live, d);
    w.u += w.lh;
    identity_minus_into(w.iu, w.u);
    w.lu.factor(w.iu);
    w.lu.solve_into(w.hh, w.h, opts.tiled);
    w.lu.solve_into(w.ll, w.l, opts.tiled);
    if (opts.tiled) {
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
    } else {
      linalg::multiply_into(w.incr, w.t, w.l);
      linalg::multiply_into(w.tmp, w.t, w.h);
    }
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
  if (sparse_final) {
    linalg::multiply_into(w.hl, w.a0_csr, w.g);
  } else {
    linalg::multiply_into(w.hl, a0, w.g);
  }
  scatter_columns(w.tmp, w.hl, w.live, d);
  w.iu = a1;
  w.iu += w.tmp;
  w.iu *= -1.0;
  w.lu.factor(w.iu);
  w.lu.solve_right_into(a0, out.r);
  scatter_columns(out.g, w.g, w.live, d);
  out.residual = r_residual(out.r, a0, a1, a2, w, sparse_resid);
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
