// Neuts' R matrix: the minimal non-negative solution of
//
//     A0 + R A1 + R^2 A2 = 0                      (eq. 23 of the paper)
//
// under the convention pi_{n+1} = pi_n R for the repeating levels.
// The solver uses one algorithm, Newton's method (Latouche, IMA J. Numer.
// Anal. 14, 1994) on the first-passage matrix G, the minimal solution of
// A2 + A1 G + A0 G^2 = 0, then R = A0 N^{-1} with N = -(A1 + A0 G).
//
// G = N^{-1} A2, so every column of G outside A2's nonzero ("live")
// columns is exactly zero: G = X E^T, where E selects the r live columns
// (r = 2 of d = 12 on a Figure 2 class chain) and X is d x r. With
// K = E^T X, the live rows of X, the G equation becomes
//
//     F(X) = A2 E + A1 X + A0 X K = 0,
//
// d r unknowns. A Newton step solves J vec(D) = -vec(F(X)) with
// J = I_r (x) (A1 + A0 G) + K^T (x) A0 and sets X += D; it never forms
// J, but solves through the real Schur form of K (Bartels-Stewart): one
// d x d system per real eigenvalue of K, one 2d x 2d system per complex
// pair. From X = 0 the iterates increase monotonically to the minimal
// solution. A Workspace keeps the converged X, and the next solve through
// it (the same class chain at the next gang fixed-point iteration) starts
// Newton there; a warm start that exhausts max_iter, meets a singular or
// non-finite step, or ends on an X with an entry below -tol or a row sum
// above 1 (a non-minimal root) is abandoned for the cold start X = 0.
// DESIGN.md § R-matrix has the derivation and the measurements.
// Logarithmic reduction and successive substitution live on as test
// oracles (tests/qbd/*_oracle.hpp).
#pragma once

#include <vector>

#include "linalg/gth.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "qbd/qbd.hpp"

namespace gs::qbd {

using linalg::Matrix;

/// Knobs for the R solver. Thread-compatible: one options object may
/// drive concurrent solves (it is only read). Stage timings flow through
/// the obs registry (timers `qbd.rsolve.newton.{setup,loop,final}`, see
/// docs/OBSERVABILITY.md).
struct RSolveOptions {
  /// Newton stops once a step changes no entry of G by more than this.
  double tol = 1e-13;
  /// Newton step cap per start (warm, then cold); exhausting it on the
  /// cold start raises gs::NumericalError.
  int max_iter = 100000;
};

struct RSolveResult {
  Matrix r;
  Matrix g;        ///< the first-passage matrix G
  int iterations = 0;  ///< Newton steps, warm and cold start together
  double residual = 0.0;  ///< max|A0 + R A1 + R^2 A2|
};

/// Reusable scratch storage for the R solve and the QBD boundary solve.
/// Every matrix-valued temporary of the hot loops lives here, so a caller
/// that solves the same chain shapes repeatedly (the gang fixed point
/// re-solves L chains per iteration) stops allocating after the first
/// pass. It also carries the R solve's warm start (`x`, `warm`): the next
/// solve through this Workspace starts Newton from the last converged X,
/// so the bits of a solve depend on the solve before it through the same
/// Workspace. Set `warm = false` to solve cold. One Workspace belongs to
/// one solve at a time — concurrent per-class solves each carry their own
/// (that is exactly how gang::GangSolver hands them to its thread-pool
/// tasks). A default-constructed Workspace is empty and cold; the solvers
/// shape it on use.
struct Workspace {
  // Newton on G's live columns: A2's live (nonzero) columns (and the
  // previous solve's, to validate the warm start), A2 on them, the
  // iterate X, A0 X, M = A1 + A0 G (then N = -M), the residual F (then
  // the step D), K = E^T X; the step's real Schur form T, Q of K, Y and
  // A0 Y, each shifted system with its right-hand
  // side and solution; and the factor those systems and N share.
  std::vector<std::size_t> live, prev_live;
  Matrix a2e, x, a0x, m, f, k, sch_t, sch_q, y, a0y, sys;
  linalg::Vector rhs, sol;
  linalg::Lu lu;
  /// True when `x` holds the converged X of the last R solve through
  /// this Workspace, on its `live` columns.
  bool warm = false;
  // Boundary level reduction (qbd::solve_with_r): R A2 (then the level-b
  // block B11 + R A2), one P_i per boundary-interior level, the running
  // pivot S_i, its exit rates U_i e and reused factor, the P_i U_i product,
  // the mass weights v_i and P_i v_i, and the transposed top-level system
  // with its factor.
  Matrix ra2;
  std::vector<Matrix> bnd_p;
  Matrix bnd_s, bnd_tmp, bnd_st;
  linalg::GthFactor bnd_gth;
  linalg::Lu bnd_lu;
  linalg::Vector bnd_exit, bnd_v, bnd_pv;
  // r_residual scratch: A2's live columns, A2, R A2 and R (R A2) on
  // those columns, R A1, and the running sum.
  std::vector<std::size_t> res_live;
  Matrix res_a2e, res_ra2, res_rra2, res_ra1, res_acc;
  // Revalue buffers for the gang fixed point: ClassProcess writes its
  // away-period rate sources here each iteration and QbdProcess::revalue
  // replays the compiled chain through them without allocating; the
  // away-period convolution assembles its total-order generator in
  // conv_s/conv_alpha the same way.
  RateBuffers rates;
  Matrix conv_s;
  linalg::Vector conv_alpha;
};

/// R and G by Newton's method on G's live columns (see the file comment).
/// Works for both recurrent and transient chains (G comes out stochastic
/// respectively sub-stochastic). The warm start's row-sum test exposes a
/// non-minimal root only on a recurrent chain, which qbd::solve's drift
/// check guarantees; a transient chain solved through a warm Workspace
/// may keep one. Throws gs::NumericalError when the cold start exhausts
/// max_iter, meets a singular step or diverges, or when the residual
/// exceeds 1e-8 max(1, |A1|).
RSolveResult solve_r(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                     const RSolveOptions& opts = {}, Workspace* ws = nullptr);

/// solve_r under the name of the algorithm it replaced. It exists only
/// for perfbench/replay.cpp, which calls it by that name; nothing else
/// should.
RSolveResult solve_r_logreduction(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts = {},
                                  Workspace* ws = nullptr);

/// max|A0 + R A1 + R^2 A2| — the defining-equation residual, with R^2 A2
/// formed as R (R A2) on A2's nonzero columns.
double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2);

/// Allocation-free form: the products land in `ws` scratch, with the same
/// bits as the form above.
double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2, Workspace& ws);

}  // namespace gs::qbd
