// Neuts' R matrix: the minimal non-negative solution of
//
//     A0 + R A1 + R^2 A2 = 0                      (eq. 23 of the paper)
//
// under the convention pi_{n+1} = pi_n R for the repeating levels.
// The solver uses one algorithm, logarithmic reduction (Latouche–
// Ramaswami): it computes G, the first-passage matrix solving
// A2 + A1 G + A0 G^2 = 0, then R = A0 (-(A1 + A0 G))^{-1} (quadratic
// convergence). G = (-A1 - A0 G)^{-1} A2, so every column of G outside
// A2's nonzero ("live") columns is exactly zero, and so is every such
// column of the down iterates L_k the reduction builds G from: the loop
// carries L, G and the products formed from them on those r columns only
// (r = 2 of d = 12 on a Figure 2 class chain), scattering back to d x d
// where a full matrix is needed (U = H L + L H, A0 G, the returned G).
// The skipped terms are exact +-0 products, so the compact loop is
// bitwise identical to the full-width one. Each product runs one kernel:
// the squaring loop's through the packed GEMM (linalg/gemm.hpp) and the
// 4-column blocked Lu::solve_into, the structured-block products through
// dense multiply_into. The full-width loop and successive substitution
// live on as test oracles (tests/qbd/*_oracle.hpp).
#pragma once

#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/gth.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "qbd/qbd.hpp"

namespace gs::qbd {

using linalg::Matrix;

/// Knobs for the R solver. Thread-compatible: one options object may
/// drive concurrent solves (it is only read). Stage timings flow through
/// the obs registry (timers `qbd.rsolve.logreduction.{setup,loop,final}`,
/// see docs/OBSERVABILITY.md).
struct RSolveOptions {
  /// Convergence threshold on the iteration's step / increment size.
  double tol = 1e-13;
  /// Iteration cap; exhaustion raises gs::NumericalError.
  int max_iter = 100000;
};

struct RSolveResult {
  Matrix r;
  Matrix g;        ///< the first-passage matrix G
  int iterations = 0;
  double residual = 0.0;  ///< max|A0 + R A1 + R^2 A2|
};

/// Reusable scratch storage for the R-matrix iterations and the QBD
/// boundary solve. Every matrix-valued temporary of the hot loops lives
/// here, so a caller that solves the same chain shapes repeatedly (the
/// gang fixed point re-solves L chains per iteration) stops allocating
/// after the first pass. One Workspace belongs to one solve at a time —
/// concurrent per-class solves each carry their own (that is exactly how
/// gang::GangSolver hands them to its thread-pool tasks). A
/// default-constructed Workspace is empty; the solvers shape it on use.
struct Workspace {
  // Logarithmic reduction: A2's live (nonzero) columns; the H/L/G/T
  // iterates and their products, with L, G, H L, L^2 and the increment
  // T L held on the live columns only; the live rows of H and L; and the
  // one factor the setup, every iteration and the final stage refactor
  // in place.
  std::vector<std::size_t> live;
  Matrix h, l, g, t;
  Matrix u, hl, lh, hh, ll, iu, incr, tmp;
  Matrix h_live, l_live;
  linalg::Lu lu;
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
  // r_residual scratch: R A1, R R, (R R) A2, and the running sum.
  Matrix res_ra1, res_rr, res_rra2, res_acc;
  // Packed-GEMM operand buffers for the grouped iterate products: two
  // A-side and four B-side packs (H, L and the live rows of each) cover
  // one squaring pass, gp_t_a the G/T carry pass.
  linalg::GemmPackA gp_h_a, gp_l_a, gp_t_a;
  linalg::GemmPackB gp_h_b, gp_l_b, gp_h_live_b, gp_l_live_b;
  // Revalue buffers for the gang fixed point: ClassProcess writes its
  // away-period rate sources here each iteration and QbdProcess::revalue
  // replays the compiled chain through them without allocating; the
  // away-period convolution assembles its total-order generator in
  // conv_s/conv_alpha the same way.
  RateBuffers rates;
  Matrix conv_s;
  linalg::Vector conv_alpha;
};

/// Logarithmic reduction. Works for both recurrent and transient chains
/// (G comes out stochastic respectively sub-stochastic).
RSolveResult solve_r_logreduction(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts = {},
                                  Workspace* ws = nullptr);

/// max|A0 + R A1 + R^2 A2| — the defining-equation residual.
double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2);

/// Allocation-free form: the three products land in `ws` scratch, with
/// the same bits as the form above.
double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2, Workspace& ws);

}  // namespace gs::qbd
