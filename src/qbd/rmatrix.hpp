// Solvers for Neuts' R matrix: the minimal non-negative solution of
//
//     A0 + R A1 + R^2 A2 = 0                      (eq. 23 of the paper)
//
// under the convention pi_{n+1} = pi_n R for the repeating levels.
// The solver uses one algorithm, logarithmic reduction (Latouche–
// Ramaswami): it computes G, the first-passage matrix solving
// A2 + A1 G + A0 G^2 = 0, then R = A0 (-(A1 + A0 G))^{-1} (quadratic
// convergence). Successive substitution, R_next (-A1) = A0 + R (R A2)
// solved by a right division against one LU of -A1, stays as a free
// function: linear and slow, but trivially correct, so tests use it as
// the oracle for log reduction and bench/qbd_kernels times it.
#pragma once

#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "qbd/qbd.hpp"

namespace gs::qbd {

using linalg::Matrix;

/// Knobs for the R solvers. Thread-compatible: one
/// options object may drive concurrent solves (it is only read).
///
/// Stage timings that used to live in RSolveProfile now flow through the
/// obs registry (timers `qbd.rsolve.logreduction.{setup,loop,final}`, see
/// docs/OBSERVABILITY.md). Why they exist at all: BENCH_qbd.json showed
/// the sparse toggle buying only ~1.06x on log reduction vs 3.15x on
/// substitution, and the stage breakdown is the explanation — log
/// reduction's squaring loop works on H/L/G/T iterates that densify after
/// the first squaring (products of sparse kernels are dense), so CSR can
/// only touch setup and the final stage; the loop share bounds the
/// possible speedup (Amdahl). Substitution, by contrast, re-multiplies
/// the *structured* A2 every iteration, which is why CSR pays there.
struct RSolveOptions {
  /// Convergence threshold on the iteration's step / increment size.
  double tol = 1e-13;
  /// Iteration cap; exhaustion raises gs::NumericalError.
  int max_iter = 100000;
  /// Run the structured-block products (A0/A2 and the recompressed R A2)
  /// through the CSR kernels. The iterates themselves stay dense. On by
  /// default: the sparse kernels are bitwise identical to the dense ones
  /// (see linalg/sparse.hpp), so this changes speed and nothing else —
  /// the equivalence tests pin that down across the paper's configs.
  /// Blocks denser than half full are exempted per call site (compressing
  /// a dense block costs O(d^2) and its CSR product saves nothing), which
  /// is also bitwise-invisible.
  bool sparse = true;
  /// Run the iterate-heavy inner stages through the tiled kernel suite:
  /// the dense products of the log-reduction squaring loop go through the
  /// packed tiled GEMM kernel (linalg/gemm.hpp), grouped so the packed
  /// iterates amortize across the products of one iteration, and the
  /// (I-U)^{-1} substitution
  /// sweeps advance a block of right-hand sides per factor read
  /// (Lu::solve_into blocked_rhs). On by default: every tiled kernel is
  /// bitwise identical to the one it replaces (see gemm.hpp / lu.hpp),
  /// so like `sparse` this toggle changes speed and nothing else — the
  /// tiled equivalence tests pin that across the paper's configs. It
  /// exists so benches and CI can time the old kernels against the new.
  bool tiled = true;
};

struct RSolveResult {
  Matrix r;
  Matrix g;        ///< only filled by the logarithmic-reduction path
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
  // Logarithmic reduction: the H/L/G/T iterates and their products.
  Matrix h, l, g, t;
  Matrix u, lh, hh, ll, iu, incr, tmp;
  // Successive substitution: R, R A2, the numerator A0 + R (R A2), and
  // the next iterate. (r_sq survives for callers that still hold it.)
  Matrix r_cur, r_sq, r_num, r_next, r_t;
  // Boundary balance system (qbd::solve): R A2, the assembled balance
  // matrix, and its transpose.
  Matrix ra2, bal, balt;
  // CSR mirrors of the structured blocks (RSolveOptions::sparse) and the
  // per-iteration recompression of R A2.
  linalg::SparseMatrix a0_csr, a1_csr, a2_csr, rt_csr;
  // r_residual scratch: R A1, R R, (R R) A2, and the running sum.
  Matrix res_ra1, res_rr, res_rra2, res_acc;
  // Packed-GEMM operand buffers for the grouped iterate products
  // (RSolveOptions::tiled): two A-side and two B-side packs cover one
  // squaring pass, gp_t_a the G/T carry pass.
  linalg::GemmPackA gp_h_a, gp_l_a, gp_t_a;
  linalg::GemmPackB gp_h_b, gp_l_b;
  // Revalue staging for the gang fixed point: ClassProcess rebuilds its
  // blocks here each iteration and QbdProcess::revalue copies them into
  // the live process without reallocating; the away-period convolution
  // assembles its total-order generator in conv_s/conv_alpha the same way.
  QbdBlocks blocks;
  Matrix conv_s;
  linalg::Vector conv_alpha;
};

/// Successive substitution from R = 0. Throws gs::NumericalError with the
/// iteration count and residual when `max_iter` is exhausted before the
/// step size reaches `tol`, or when the converged iterate fails the
/// defining-equation residual check.
RSolveResult solve_r_substitution(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts = {},
                                  Workspace* ws = nullptr);

/// Logarithmic reduction. Works for both recurrent and transient chains
/// (G comes out stochastic respectively sub-stochastic).
RSolveResult solve_r_logreduction(const Matrix& a0, const Matrix& a1,
                                  const Matrix& a2,
                                  const RSolveOptions& opts = {},
                                  Workspace* ws = nullptr);

/// max|A0 + R A1 + R^2 A2| — the defining-equation residual.
double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2);

/// Allocation-free form: the three products land in `ws` scratch. With
/// `sparse`, A1 and A2 are read from ws.a1_csr / ws.a2_csr — the caller
/// must have assigned them from these same a1/a2 (the R solvers do);
/// results are bitwise identical either way.
double r_residual(const Matrix& r, const Matrix& a0, const Matrix& a1,
                  const Matrix& a2, Workspace& ws, bool sparse);

}  // namespace gs::qbd
