// Lock-step R-matrix solves across W same-shaped QBD chains.
//
// The gang fixed point's cost is dominated by the per-class R solves, and
// every batch-generating surface (figure sweeps, warm-chain fills,
// coalesced daemon requests) produces chains whose blocks share one shape
// and differ only in values. These solvers run the logarithmic-reduction
// iteration on linalg::BatchMatrix storage with a per-lane convergence
// mask: each lane retires the moment *its* iterate converges (its
// storage freezes in place), the rest keep iterating, and the extracted
// per-lane R is bitwise identical to the scalar solver's —
// the contract linalg/batch.hpp spells out and the batched equivalence
// tests pin on the paper's Figure 2-5 configurations.
//
// Error discipline: where the scalar solver throws (singular LU,
// exhausted iterations, residual failure), a batch lane records the exact
// scalar message in BatchRSolveResult::error and drops out of the
// lock-step; the surviving lanes are unaffected. Callers that need the
// scalar path's full throw/retry semantics (gang::GangSolver::solve_batch
// does) re-run failed lanes through the scalar solver, which reproduces
// the exception type and text by construction.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "linalg/batch.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"

namespace gs::qbd {

/// The repeating blocks of W same-shaped chains, lane-major. The
/// boundary mirrors (B00/B01/B10/B11) are loaded only by the batched
/// boundary stage and stay empty for pure R solves.
struct BatchBlocks {
  /// Repeating blocks: down-transitions A0, local A1, up-transitions A2.
  linalg::BatchMatrix a0, a1, a2;
  /// Boundary blocks: B00 is D x D, B01 D x d, B10 d x D, B11 d x d,
  /// where D is the stacked boundary dimension and d the repeating one.
  linalg::BatchMatrix b00, b01, b10, b11;

  /// Repeating block dimension d (rows of A1).
  std::size_t size() const { return a1.rows(); }
  /// Lane count W of the current shape.
  std::size_t width() const { return a1.width(); }

  /// Reshape to d x d blocks, W lanes (no-op when already shaped —
  /// lanes outside a subsequent load keep their bits).
  void ensure(std::size_t d, std::size_t width);
  /// Scatter one chain's A0/A1/A2 into lane `lane`.
  void load_lane(std::size_t lane, const QbdBlocks& blk);

  /// Reshape the boundary mirrors for boundary dimension D, repeating
  /// dimension d, W lanes (same no-op rule as ensure()).
  void ensure_boundary(std::size_t boundary_dim, std::size_t d,
                       std::size_t width);
  /// Scatter one chain's B00/B01/B10/B11 into lane `lane`.
  void load_boundary_lane(std::size_t lane, const QbdBlocks& blk);
};

/// Per-lane outcome of a batched R solve. A lane either succeeded
/// (error empty; r lane, iterations, residual valid) or carries the
/// exact message the scalar solver would have thrown for its inputs.
/// Lanes outside the mask passed to the solver are untouched apart from
/// reset() defaults and must not be read.
struct BatchRSolveResult {
  linalg::BatchMatrix r;            ///< per-lane R (valid where ok())
  std::vector<int> iterations;      ///< per-lane iteration counts
  std::vector<double> residual;     ///< per-lane final residuals
  std::vector<std::string> error;   ///< per-lane failure, empty = ok

  /// Lane converged to a valid R.
  bool ok(std::size_t lane) const { return error[lane].empty(); }
  /// Clear to width `width` defaults (reuses storage).
  void reset(std::size_t width);
};

/// Reusable scratch for the batched R solver: every BatchMatrix
/// temporary of the iteration, the three lock-step LU factors, the
/// lane-major block mirrors, and the scalar scratch the per-lane residual
/// checks run on. Lives in the workspace arena (one slot per class of a
/// gang batch solve) so consecutive same-shaped batches stop allocating.
struct BatchWorkspace {
  // Logarithmic reduction iterates and products.
  linalg::BatchMatrix h, l, g, t, u, lh, hh, ll, iu, incr, tmp;
  linalg::BatchMatrix neg_a1;             ///< shared -A1 operand
  // Lock-step LU factors for the three batched solves per iteration.
  linalg::BatchLu lu_a1, lu_iu, lu_final;
  // Lane-major mirrors of the blocks being solved.
  BatchBlocks blocks;
  // Packed batched-GEMM operands (RSolveOptions::tiled): three A-side
  // packs and two B-side packs cover one log-reduction squaring-plus-
  // carry iteration.
  linalg::BatchGemmPackA bg_h_a, bg_l_a, bg_t_a;
  linalg::BatchGemmPackB bg_h_b, bg_l_b;  ///< shared B-side panel packs
  // Per-lane extraction + residual scratch (scalar shapes).
  linalg::Matrix lane_r, lane_a0, lane_a1, lane_a2;
  // Batched boundary stage (solve_boundary_batch): the level-b diagonal
  // product R A2 + B11, the transposed balance system, I-R and its
  // batched inverse (via an identity right-hand side), the balance
  // right-hand side / solution vectors, the two lock-step LU factors,
  // and the per-lane scalar mirror of (I-R)^{-1}.
  linalg::BatchMatrix bnd_ra2, bnd_mt, bnd_imr, bnd_inv, bnd_eye, bnd_rhs,
      bnd_x;
  linalg::BatchLu bnd_lu_imr, bnd_lu_bal;  ///< I-R and balance factors
  linalg::Matrix bnd_lane_inv;             ///< per-lane (I-R)^{-1} mirror
  // Scalar workspace for per-lane extraction and fallback assembly.
  Workspace scalar;
};

/// Per-lane outcome of the batched boundary/stationary stage. A lane
/// either carries its normalized stationary solution (error empty) or
/// the exact what() text the scalar solve_with_r would have thrown for
/// its inputs; `numerical` distinguishes gs::NumericalError (retryable —
/// the caller's ladder replays the lane through the scalar path) from
/// other gs::Error (permanent). Lanes outside the mask passed to the
/// solver are untouched apart from reset() defaults.
struct BatchBoundaryResult {
  std::vector<std::optional<QbdSolution>> solution;  ///< per-lane solution
  std::vector<std::string> error;       ///< per-lane failure, empty = ok
  std::vector<unsigned char> numerical; ///< failure was a NumericalError

  /// Lane finished with a valid solution.
  bool ok(std::size_t lane) const { return error[lane].empty(); }
  /// Clear to width `width` defaults (drops held solutions).
  void reset(std::size_t width);
};

/// Logarithmic reduction on the masked lanes with per-lane retirement,
/// mirroring solve_r_logreduction lane by lane: per lane the exact
/// arithmetic, iteration count, residual, and (on failure) error text.
void solve_r_logreduction_batch(const BatchBlocks& blocks,
                                const linalg::LaneMask& lanes,
                                const RSolveOptions& opts, BatchWorkspace& w,
                                BatchRSolveResult& out);

/// The boundary/stationary stage of solve() for W lanes in lock-step —
/// the batched twin of solve_with_r, fed the batched R the lock-step R
/// solvers produced. Per active lane and bit-for-bit like the scalar
/// stage: spectral-radius admission, the censored balance system
/// (assembled lane-major and factored through one BatchLu), the
/// normalization row from the batched (I-R)^{-1}, clipping, the probe
/// mass check, and renormalization. `procs` holds one chain per lane;
/// active lanes must be non-null and share boundary/repeating dimensions
/// (the caller groups by structure — mismatched lanes belong in a
/// scalar fallback, not in this mask). A lane that fails any stage
/// carries the scalar error text in `out` and drops out of the
/// lock-step without disturbing the others. `opts` is accepted for
/// signature parity with solve_with_r: its sparse/dense product choice
/// is bitwise-neutral (see solver.cpp), so the batched stage always
/// runs the dense-equivalent batched product. Feeds the
/// qbd.batch.boundary.{pack,lu,trsm} stage timers and the
/// qbd.batch.boundary.lanes counter.
void solve_boundary_batch(const QbdProcess* const* procs,
                          const linalg::BatchMatrix& r,
                          const linalg::LaneMask& lanes,
                          const SolveOptions& opts, BatchWorkspace& w,
                          BatchBoundaryResult& out);

}  // namespace gs::qbd
