// Block-tridiagonal linear solves (block Thomas algorithm).
//
// The truncated serving-state sub-generator of Theorem 4.3 is block-
// tridiagonal in the level: computing effective-quantum moments needs
// (-T)^{-1} e, and a dense LU at deep truncations (thousands of levels at
// high load) would be cubic in the full dimension. Block elimination is
// linear in the number of levels and cubic only in the per-level block
// size, which is tiny.
//
// The effective-quantum extraction solves the same chain at a truncation
// depth that moves between fixed-point iterations, and every depth shares
// its leading block rows with every other: only the last (censored)
// diagonal block differs. BlockTridiagFactor therefore keeps the forward
// elimination of a growable prefix of block rows, and each depth costs one
// LU of its replaced last pivot plus one forward/back sweep per right-hand
// side.
#pragma once

#include <optional>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace gs::linalg {

/// Block elimination of the leading block rows of a block-tridiagonal
/// matrix M with diagonal blocks D_i, super-diagonal blocks U_i (block row
/// i, column i+1) and sub-diagonal blocks L_{i-1} (block row i, column
/// i-1). Blocks may differ in size. The factor keeps, per pushed row, the
/// LU of the eliminated pivot D'_i = D_i - L_{i-1} D'^{-1}_{i-1} U_{i-1},
/// the Schur term L_{i-1} D'^{-1}_{i-1} U_{i-1}, and the off-diagonal
/// blocks (compressed when at most half dense) — nothing else.
class BlockTridiagFactor {
 public:
  /// The system formed by the first n block rows with D_{n-1} replaced:
  /// the shared prefix plus the LU of the replaced last pivot. Reads the
  /// factor it was cut from, which must outlive it; pushing more rows
  /// meanwhile is fine.
  class Truncated {
   public:
    /// Solve M_n x = b; `b` is the concatenation of the per-block
    /// right-hand sides of the first n rows.
    Vector solve(const Vector& b) const;
    /// Total dimension of the truncated system.
    std::size_t size() const;

   private:
    friend class BlockTridiagFactor;
    Truncated(const BlockTridiagFactor& f, std::size_t n, Lu last)
        : f_(&f), n_(n), last_(std::move(last)) {}
    const BlockTridiagFactor* f_;
    std::size_t n_;
    Lu last_;
  };

  /// Number of block rows pushed so far.
  std::size_t levels() const { return rows_.size(); }

  /// Append block row i = levels(): `lower` is L_{i-1} (empty for i = 0),
  /// `diag` is D_i, and `upper` is U_i (empty when no row will follow).
  /// Eliminates the previous row's pivot, which throws
  /// gs::NumericalError if it is singular; the factor is then left
  /// exactly as it was before the call.
  void push(const Matrix& lower, const Matrix& diag, const Matrix& upper);

  /// Factor the system of the first n block rows (1 <= n <= levels())
  /// with D_{n-1} replaced by `last_diag` — a censored last level. Throws
  /// gs::NumericalError if the replaced pivot is singular.
  Truncated truncate(std::size_t n, const Matrix& last_diag) const;

 private:
  // An off-diagonal block, compressed when that pays (see try_compress).
  struct OffDiag {
    std::optional<SparseMatrix> csr;
    Matrix dense;  // kept only when not compressed
    void assign(const Matrix& m);
    void multiply(Vector& out, const Vector& x) const;
  };
  struct Row {
    OffDiag lower;           // L_{i-1}; empty at i = 0
    OffDiag upper;           // U_i; empty on a final row
    Matrix schur;            // L_{i-1} D'^{-1}_{i-1} U_{i-1}; empty at i = 0
    std::size_t offset = 0;  // first index of the row's block in x
    std::size_t dim = 0;     // n_i
  };

  std::vector<Row> rows_;
  std::vector<Lu> pivots_;  // LU of D'_i for every row but the last
  Matrix pending_;          // D'_i of the last row, factored by the next push
  Matrix pending_upper_;    // U_i of the last row, dense, for that Schur term
};

/// Solve M x = b where M consists of diagonal blocks diag[i], super-
/// diagonal blocks upper[i] (block row i, column i+1) and sub-diagonal
/// blocks lower[i] (block row i+1, column i). Blocks may differ in size:
/// diag[i] is n_i x n_i, upper[i] is n_i x n_{i+1}, lower[i] is
/// n_{i+1} x n_i. `b` is the concatenation of the per-block right-hand
/// sides. Throws gs::NumericalError if a pivot block is singular. The
/// one-shot use of BlockTridiagFactor.
Vector block_tridiag_solve(const std::vector<Matrix>& diag,
                           const std::vector<Matrix>& upper,
                           const std::vector<Matrix>& lower, const Vector& b);

}  // namespace gs::linalg
