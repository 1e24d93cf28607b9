#include "qbd/batch.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/spectral.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::qbd {

namespace {

using linalg::BatchKernelStats;
using linalg::LaneMask;

constexpr const char* kSingularMsg =
    "LU: matrix is singular to working precision";

// Scoped stage timer for the qbd.batch.{pack,gemm,trsm,lu} breakdown:
// clock reads only when metrics are on (the solvers' hot loops stay
// clock-free otherwise), one obs::time_ns per scope on destruction.
using StageTimer = obs::StageTimer;

// Flag every lane whose last factor came out singular with the scalar
// Lu constructor's exact message and drop it from the running mask.
void drop_singular_lanes(const linalg::BatchLu& lu, LaneMask& run,
                         BatchRSolveResult& out) {
  for (std::size_t l = 0; l < run.width(); ++l) {
    if (run[l] && lu.singular(l)) {
      out.error[l] = kSingularMsg;
      run.set(l, false);
    }
  }
}

// Extract lane l's R and blocks and run the scalar residual — identical
// bits to the scalar solver's in-loop residual (sparse/dense residual
// paths are bitwise-equal, see r_residual).
double lane_residual(const linalg::BatchMatrix& r, const BatchBlocks& blocks,
                     std::size_t l, BatchWorkspace& w) {
  r.store_lane(l, w.lane_r);
  blocks.a0.store_lane(l, w.lane_a0);
  blocks.a1.store_lane(l, w.lane_a1);
  blocks.a2.store_lane(l, w.lane_a2);
  return r_residual(w.lane_r, w.lane_a0, w.lane_a1, w.lane_a2, w.scalar,
                    /*sparse=*/false);
}

// Batch-level obs: lane count, early retirements (lanes whose storage
// froze while others kept iterating), and the flops the masks saved.
void count_batch_obs(const BatchRSolveResult& out, const LaneMask& lanes,
                     const BatchKernelStats& stats) {
  std::uint64_t solved = 0;
  int last_it = 0;
  for (std::size_t l = 0; l < lanes.width(); ++l) {
    if (!lanes[l]) continue;
    ++solved;
    last_it = std::max(last_it, out.iterations[l]);
  }
  std::uint64_t retired = 0;
  for (std::size_t l = 0; l < lanes.width(); ++l)
    if (lanes[l] && out.ok(l) && out.iterations[l] < last_it) ++retired;
  obs::count("qbd.batch.lanes", solved);
  if (retired > 0) obs::count("qbd.batch.retired", retired);
  if (stats.masked_flops > 0)
    obs::count("qbd.batch.masked_flops", stats.masked_flops);
}

}  // namespace

void BatchBlocks::ensure(std::size_t d, std::size_t width) {
  a0.ensure(d, d, width);
  a1.ensure(d, d, width);
  a2.ensure(d, d, width);
}

void BatchBlocks::load_lane(std::size_t lane, const QbdBlocks& blk) {
  a0.load_lane(lane, blk.a0);
  a1.load_lane(lane, blk.a1);
  a2.load_lane(lane, blk.a2);
}

void BatchBlocks::ensure_boundary(std::size_t boundary_dim, std::size_t d,
                                  std::size_t width) {
  b00.ensure(boundary_dim, boundary_dim, width);
  b01.ensure(boundary_dim, d, width);
  b10.ensure(d, boundary_dim, width);
  b11.ensure(d, d, width);
}

void BatchBlocks::load_boundary_lane(std::size_t lane, const QbdBlocks& blk) {
  b00.load_lane(lane, blk.b00);
  b01.load_lane(lane, blk.b01);
  b10.load_lane(lane, blk.b10);
  b11.load_lane(lane, blk.b11);
}

void BatchRSolveResult::reset(std::size_t width) {
  iterations.assign(width, 0);
  residual.assign(width, 0.0);
  error.assign(width, std::string());
}

void solve_r_logreduction_batch(const BatchBlocks& blocks,
                                const linalg::LaneMask& lanes,
                                const RSolveOptions& opts, BatchWorkspace& w,
                                BatchRSolveResult& out) {
  const std::size_t d = blocks.size();
  const std::size_t width = blocks.width();
  GS_CHECK(blocks.a0.rows() == d && blocks.a2.rows() == d,
           "R solve: block size mismatch");
  GS_CHECK(lanes.width() == width, "batch R solve: mask width mismatch");

  obs::Span span("qbd.rsolve.logreduction.batch");
  span.arg("d", static_cast<std::int64_t>(d));
  span.arg("width", static_cast<std::int64_t>(width));

  out.reset(width);
  BatchKernelStats stats;
  LaneMask run = lanes;

  linalg::batch_scaled_copy(w.neg_a1, blocks.a1, -1.0, run);
  {
    StageTimer lu_t("qbd.batch.lu");
    w.lu_a1.factor(w.neg_a1, run);
  }
  drop_singular_lanes(w.lu_a1, run, out);
  if (run.any()) {
    StageTimer trsm_t("qbd.batch.trsm");
    w.lu_a1.solve_into(blocks.a0, w.h, run);
    w.lu_a1.solve_into(blocks.a2, w.l, run);
    linalg::batch_copy(w.g, w.l, run);
    linalg::batch_copy(w.t, w.h, run);
  }
  // Tiled path: B-side packs of H and L persist across the two grouped
  // passes of an iteration, exactly like the scalar loop — pass 2 packs
  // the new iterates it reads, which is what pass 1 of the next
  // iteration needs.
  if (opts.tiled && run.any()) {
    StageTimer pack_t("qbd.batch.pack");
    w.bg_h_b.pack(w.h);
    w.bg_l_b.pack(w.l);
  }

  std::vector<unsigned char> conv(width, 0);
  std::vector<double> last_incr(width, 0.0);
  for (int it = 1; it <= opts.max_iter && run.any(); ++it) {
    // The squaring and carry products are dense-by-necessity (same story
    // as the scalar loop), so the packed register-tiled kernels apply;
    // packing drops only slices zero across every running lane, which is
    // why `stats` only feeds on the masked path. One grouped pass = the
    // products sharing packed iterates.
    if (opts.tiled) {
      {
        StageTimer pack_t("qbd.batch.pack");
        w.bg_h_a.pack(w.h, run);
        w.bg_l_a.pack(w.l, run);
      }
      const linalg::BatchGemmOp squaring[4] = {
          {&w.u, &w.bg_h_a, &w.bg_l_b},    // H L
          {&w.lh, &w.bg_l_a, &w.bg_h_b},   // L H
          {&w.hh, &w.bg_h_a, &w.bg_h_b},   // H^2
          {&w.ll, &w.bg_l_a, &w.bg_l_b},   // L^2
      };
      {
        StageTimer gemm_t("qbd.batch.gemm");
        linalg::batch_gemm_grouped(squaring, 4, run);
      }
      obs::count("qbd.rsolve.logreduction.grouped_passes");
    } else {
      StageTimer gemm_t("qbd.batch.gemm");
      linalg::batch_multiply_into(w.u, w.h, w.l, run, &stats);
      linalg::batch_multiply_into(w.lh, w.l, w.h, run, &stats);
      linalg::batch_multiply_into(w.hh, w.h, w.h, run, &stats);
      linalg::batch_multiply_into(w.ll, w.l, w.l, run, &stats);
    }
    linalg::batch_add(w.u, w.lh, run);
    linalg::batch_identity_minus(w.iu, w.u, run);
    {
      StageTimer lu_t("qbd.batch.lu");
      w.lu_iu.factor(w.iu, run);
    }
    drop_singular_lanes(w.lu_iu, run, out);
    if (!run.any()) break;
    {
      StageTimer trsm_t("qbd.batch.trsm");
      w.lu_iu.solve_into(w.hh, w.h, run);
      w.lu_iu.solve_into(w.ll, w.l, run);
    }
    if (opts.tiled) {
      {
        StageTimer pack_t("qbd.batch.pack");
        w.bg_t_a.pack(w.t, run);
        w.bg_l_b.pack(w.l);
        w.bg_h_b.pack(w.h);
      }
      const linalg::BatchGemmOp carry[2] = {
          {&w.incr, &w.bg_t_a, &w.bg_l_b},  // T L
          {&w.tmp, &w.bg_t_a, &w.bg_h_b},   // T H
      };
      {
        StageTimer gemm_t("qbd.batch.gemm");
        linalg::batch_gemm_grouped(carry, 2, run);
      }
      obs::count("qbd.rsolve.logreduction.grouped_passes");
    } else {
      StageTimer gemm_t("qbd.batch.gemm");
      linalg::batch_multiply_into(w.incr, w.t, w.l, run, &stats);
      linalg::batch_multiply_into(w.tmp, w.t, w.h, run, &stats);
    }
    linalg::batch_add(w.g, w.incr, run);
    // Copy-not-swap (the scalar path swaps T and its product): retiring
    // lanes freeze in place.
    linalg::batch_copy(w.t, w.tmp, run);
    for (std::size_t l = 0; l < width; ++l) {
      if (!run[l]) continue;
      out.iterations[l] = it;
      last_incr[l] = w.incr.lane_max_abs(l);
      if (last_incr[l] <= opts.tol && w.t.lane_max_abs(l) <= opts.tol) {
        conv[l] = 1;
        run.set(l, false);
      }
    }
  }

  // Final stage runs for every lane that survived factoring — the scalar
  // solver, too, computes R and the residual before deciding whether to
  // throw for non-convergence.
  LaneMask fin(width, false);
  for (std::size_t l = 0; l < width; ++l)
    if (lanes[l] && out.ok(l)) fin.set(l, true);
  if (fin.any()) {
    linalg::batch_multiply_into(w.tmp, blocks.a0, w.g, fin, &stats);
    linalg::batch_copy(w.iu, blocks.a1, fin);
    linalg::batch_add(w.iu, w.tmp, fin);
    linalg::batch_scale(w.iu, -1.0, fin);
    w.lu_final.factor(w.iu, fin);
    drop_singular_lanes(w.lu_final, fin, out);
  }
  if (fin.any()) w.lu_final.solve_right_into(blocks.a0, out.r, fin);
  for (std::size_t l = 0; l < width; ++l) {
    if (!fin[l]) continue;
    out.residual[l] = lane_residual(out.r, blocks, l, w);
    if (conv[l] == 0) {
      out.error[l] = "logarithmic reduction for R exhausted max_iter=" +
                     std::to_string(opts.max_iter) + " (last increment " +
                     std::to_string(last_incr[l]) + " > tol " +
                     std::to_string(opts.tol) + ", residual " +
                     std::to_string(out.residual[l]) + ")";
    } else if (out.residual[l] > 1e-8 * std::max(1.0, w.lane_a1.max_abs())) {
      out.error[l] = "logarithmic reduction for R did not converge (residual " +
                     std::to_string(out.residual[l]) + " after " +
                     std::to_string(out.iterations[l]) + " iterations)";
    }
  }
  count_batch_obs(out, lanes, stats);
}

void BatchBoundaryResult::reset(std::size_t width) {
  solution.assign(width, std::nullopt);
  error.assign(width, std::string());
  numerical.assign(width, 0);
}

void solve_boundary_batch(const QbdProcess* const* procs,
                          const linalg::BatchMatrix& r,
                          const linalg::LaneMask& lanes,
                          const SolveOptions& opts, BatchWorkspace& w,
                          BatchBoundaryResult& out) {
  // The sparse/dense choice in the scalar stage is bitwise-neutral (the
  // CSR and dense products agree bit for bit — see solve_with_r), so the
  // batched product below matches either setting.
  (void)opts;
  const std::size_t width = lanes.width();
  out.reset(width);
  LaneMask run = lanes;
  if (!run.any()) return;

  std::size_t ref = width;
  for (std::size_t l = 0; l < width; ++l) {
    if (run[l]) {
      ref = l;
      break;
    }
  }
  const std::size_t D = procs[ref]->boundary_size();
  const std::size_t d = procs[ref]->repeating_size();
  const std::size_t n = D + d;
  GS_CHECK(r.rows() == d && r.cols() == d && r.width() == width,
           "solve_boundary_batch: R shape mismatch");
  for (std::size_t l = 0; l < width; ++l) {
    if (!run[l]) continue;
    GS_CHECK(procs[l] != nullptr, "solve_boundary_batch: null lane process");
    GS_CHECK(procs[l]->boundary_size() == D &&
                 procs[l]->repeating_size() == d,
             "solve_boundary_batch: lane dimension mismatch (group lanes by "
             "structure before batching)");
  }
  obs::count("qbd.batch.boundary.lanes",
             static_cast<std::uint64_t>(run.count()));

  // Per-lane spectral-radius admission, exactly the scalar stage's.
  std::vector<double> sp(width, 0.0);
  for (std::size_t l = 0; l < width; ++l) {
    if (!run[l]) continue;
    r.store_lane(l, w.lane_r);
    const auto spec = linalg::spectral_radius(w.lane_r);
    sp[l] = spec.radius;
    if (spec.radius >= 1.0) {
      out.error[l] = "sp(R) = " + std::to_string(spec.radius) +
                     " >= 1: chain is not positive recurrent";
      out.numerical[l] = 1;
      run.set(l, false);
    }
  }
  if (!run.any()) return;

  BatchKernelStats stats;
  {
    // Pack: lane loads, the level-b diagonal product R A2 + B11, the
    // transposed balance system, and I - R for the tail inverse.
    StageTimer timer("qbd.batch.boundary.pack");
    w.blocks.a2.ensure(d, d, width);
    w.blocks.ensure_boundary(D, d, width);
    for (std::size_t l = 0; l < width; ++l) {
      if (!run[l]) continue;
      const QbdBlocks& blk = procs[l]->blocks();
      w.blocks.a2.load_lane(l, blk.a2);
      w.blocks.load_boundary_lane(l, blk);
    }
    linalg::batch_multiply_into(w.bnd_ra2, r, w.blocks.a2, run, &stats);
    linalg::batch_add(w.bnd_ra2, w.blocks.b11, run);

    // Assemble the transposed balance matrix directly (the scalar stage
    // builds M block-wise and transposes; entry-for-entry copies commute
    // with the transpose, so writing M^T straight from the blocks moves
    // the same bits): mt = [[B00^T, B10^T], [B01^T, (B11 + R A2)^T]].
    w.bnd_mt.ensure(n, n, width);
    auto scatter_t = [&](const linalg::BatchMatrix& src, std::size_t row0,
                         std::size_t col0) {
      for (std::size_t i = 0; i < src.rows(); ++i) {
        for (std::size_t j = 0; j < src.cols(); ++j) {
          const double* s = src.lanes(i, j);
          double* o = w.bnd_mt.lanes(col0 + j, row0 + i);
          for (std::size_t l = 0; l < width; ++l)
            if (run[l]) o[l] = s[l];
        }
      }
    };
    scatter_t(w.blocks.b00, 0, 0);
    scatter_t(w.blocks.b01, 0, D);
    scatter_t(w.blocks.b10, D, 0);
    scatter_t(w.bnd_ra2, D, D);

    linalg::batch_identity_minus(w.bnd_imr, r, run);
  }

  // (I-R)^{-1} per lane: factor I-R once, solve against the identity —
  // bit-for-bit linalg::inverse (whose Lu would throw the singular
  // message the failing lanes record here).
  {
    StageTimer timer("qbd.batch.boundary.lu");
    w.bnd_lu_imr.factor(w.bnd_imr, run);
  }
  for (std::size_t l = 0; l < width; ++l) {
    if (run[l] && w.bnd_lu_imr.singular(l)) {
      out.error[l] = kSingularMsg;
      out.numerical[l] = 1;
      run.set(l, false);
    }
  }
  if (!run.any()) return;
  {
    StageTimer timer("qbd.batch.boundary.trsm");
    w.bnd_eye.ensure(d, d, width);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        double* o = w.bnd_eye.lanes(i, j);
        const double id = i == j ? 1.0 : 0.0;
        for (std::size_t l = 0; l < width; ++l)
          if (run[l]) o[l] = id;
      }
    }
    w.bnd_lu_imr.solve_into(w.bnd_eye, w.bnd_inv, run);
  }

  // Normalization row + right-hand side, per lane (the tail weights are
  // the scalar (I-R)^{-1} e product on the extracted lane inverse).
  {
    StageTimer timer("qbd.batch.boundary.pack");
    const Vector ones = linalg::ones(d);
    for (std::size_t l = 0; l < width; ++l) {
      if (!run[l]) continue;
      w.bnd_inv.store_lane(l, w.bnd_lane_inv);
      const Vector tail_weights = w.bnd_lane_inv * ones;
      for (std::size_t j = 0; j < D; ++j) w.bnd_mt(0, j, l) = 1.0;
      for (std::size_t j = 0; j < d; ++j)
        w.bnd_mt(0, D + j, l) = tail_weights[j];
    }
    w.bnd_rhs.ensure(n, 1, width);
    for (std::size_t i = 0; i < n; ++i) {
      double* o = w.bnd_rhs.lanes(i, 0);
      const double v = i == 0 ? 1.0 : 0.0;
      for (std::size_t l = 0; l < width; ++l)
        if (run[l]) o[l] = v;
    }
  }

  // Balance solve: one batched factor + n x 1 solve per lane, the exact
  // arithmetic of the scalar Lu(mt).solve(rhs).
  {
    StageTimer timer("qbd.batch.boundary.lu");
    w.bnd_lu_bal.factor(w.bnd_mt, run);
  }
  for (std::size_t l = 0; l < width; ++l) {
    if (run[l] && w.bnd_lu_bal.singular(l)) {
      out.error[l] =
          "QBD boundary system is singular — the chain is likely reducible "
          "(check QbdProcess::is_irreducible())";
      out.numerical[l] = 1;
      run.set(l, false);
    }
  }
  if (!run.any()) {
    if (stats.masked_flops > 0)
      obs::count("qbd.batch.masked_flops", stats.masked_flops);
    return;
  }
  {
    StageTimer timer("qbd.batch.boundary.trsm");
    w.bnd_lu_bal.solve_into(w.bnd_rhs, w.bnd_x, run);
  }

  // Per-lane finish: clip, split into boundary levels, probe the mass,
  // renormalize — scalar order, scalar error mapping.
  for (std::size_t l = 0; l < width; ++l) {
    if (!run[l]) continue;
    try {
      Vector x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = w.bnd_x(i, 0, l);
      for (double& v : x) {
        GS_ASSERT(v >= -1e-9);
        v = std::max(v, 0.0);
      }
      std::vector<Vector> boundary;
      boundary.reserve(procs[l]->boundary_levels() + 1);
      std::size_t off = 0;
      for (std::size_t dim : procs[l]->boundary_level_dims()) {
        boundary.emplace_back(
            x.begin() + static_cast<std::ptrdiff_t>(off),
            x.begin() + static_cast<std::ptrdiff_t>(off + dim));
        off += dim;
      }
      boundary.emplace_back(x.begin() + static_cast<std::ptrdiff_t>(D),
                            x.end());

      r.store_lane(l, w.lane_r);
      w.bnd_inv.store_lane(l, w.bnd_lane_inv);
      Matrix lane_inv = w.bnd_lane_inv;
      const QbdSolution probe(boundary, w.lane_r, lane_inv, sp[l]);
      const double total = probe.total_mass();
      if (std::fabs(total - 1.0) > 1e-6) {
        out.error[l] = "QBD solution mass " + std::to_string(total) +
                       " deviates from 1 — boundary system is ill-conditioned";
        out.numerical[l] = 1;
        continue;
      }
      for (auto& lvl : boundary)
        for (double& v : lvl) v /= total;
      out.solution[l].emplace(std::move(boundary), w.lane_r,
                              std::move(lane_inv), sp[l]);
    } catch (const NumericalError& e) {
      out.error[l] = e.what();
      out.numerical[l] = 1;
    } catch (const Error& e) {
      out.error[l] = e.what();
      out.numerical[l] = 0;
    }
  }
  if (stats.masked_flops > 0)
    obs::count("qbd.batch.masked_flops", stats.masked_flops);
}

}  // namespace gs::qbd
