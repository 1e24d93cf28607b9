// Quasi-birth-death (QBD) processes with a heterogeneous boundary —
// the structure of equation (20) in the paper.
//
// The generator is block-tridiagonal in the *level* (for the gang model:
// the number of class-p jobs in the system). Levels 0..b-1 form the
// boundary interior (their state spaces may differ level to level), level
// b is the last boundary level whose within-level space already matches
// the repeating portion, and from level b+1 onward the process repeats
// with blocks A0 (up), A1 (local), A2 (down):
//
//        [ D0  U0                        ]
//        [ L0  D1  U1                    ]
//    Q = [     ..  ..  U_{b-1}           ]
//        [         L_{b-1}  B11  A0      ]
//        [                  A2   A1  A0  ]
//        [                       ..  ..  ]
//
// QbdBlocks stores exactly these blocks, one per level, so the structure
// is a property of the type: no transition can skip a level. The solver
// works level by level and never assembles the boundary as one matrix;
// corner() does, for the irreducibility check and the tests.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace gs::qbd {

using linalg::Matrix;
using linalg::Vector;

/// The generator's blocks, level by level. With b = diag.size() boundary-
/// interior levels of n_0..n_{b-1} states (n_i = diag[i].rows()) and
/// n_b = d states per level from b on:
struct QbdBlocks {
  std::vector<Matrix> diag;  ///< level i -> i, i < b          (n_i x n_i)
  std::vector<Matrix> up;    ///< level i -> i+1, i < b        (n_i x n_{i+1})
  std::vector<Matrix> down;  ///< level i+1 -> i, i < b        (n_{i+1} x n_i)
  Matrix b11;  ///< within level b                          (d x d)
  Matrix a0;   ///< level n -> n+1, n >= b                  (d x d)
  Matrix a1;   ///< within level n, n >= b+1                (d x d)
  Matrix a2;   ///< level n -> n-1, n >= b+1                (d x d)
};

class QbdProcess {
 public:
  /// Validates the block shapes (diag, up and down all of length b and
  /// chained level to level; b = 0 means no boundary interior) and that
  /// every generator row sums to zero:
  ///   level i < b:    L_{i-1} e + D_i e + U_i e = 0
  ///   level b:        L_{b-1} e + B11 e + A0 e = 0
  ///   repeating rows: A2 e + A1 e + A0 e = 0
  /// with non-negative entries off the diagonals of D_i, B11 and A1.
  explicit QbdProcess(QbdBlocks blocks);

  /// Overwrite the block values in place, keeping the existing storage —
  /// every block of `blocks` must have the shape the process was built
  /// with (throws gs::InvalidArgument otherwise). Runs the same validation
  /// as the constructor. This is the fixed-point iteration's revalue path:
  /// the gang chains keep their shapes while only the away-period rates
  /// change, so re-solving need not reallocate the blocks per class per
  /// iteration.
  void revalue(const QbdBlocks& blocks);

  const QbdBlocks& blocks() const { return blocks_; }
  /// Number of boundary-interior levels b.
  std::size_t boundary_levels() const { return blocks_.diag.size(); }
  /// n_i: states at boundary-interior level i < b.
  std::size_t level_dim(std::size_t i) const { return blocks_.diag[i].rows(); }
  /// D: total states across boundary-interior levels.
  std::size_t boundary_size() const { return boundary_size_; }
  /// d: states per repeating level.
  std::size_t repeating_size() const { return blocks_.a1.rows(); }

  /// Mean-drift stability data (Theorem 4.4, eq. 36): y is the stationary
  /// vector of A = A0 + A1 + A2; the process is positive recurrent iff
  /// up_drift = y A0 e < down_drift = y A2 e.
  struct Drift {
    Vector y;
    double up_drift = 0.0;
    double down_drift = 0.0;
    bool stable = false;
  };
  Drift drift() const;

  /// The finite north-west corner of the generator covering boundary
  /// levels plus `repeating_levels` repeating levels — used for the
  /// irreducibility check of Section 4.4 (boundary plus one repeating
  /// level strongly connected implies the whole chain is irreducible) and
  /// by truncation-based cross-checks in tests.
  Matrix corner(std::size_t repeating_levels) const;

  /// Section 4.4's irreducibility criterion.
  bool is_irreducible() const;

 private:
  void validate() const;

  QbdBlocks blocks_;
  std::size_t boundary_size_ = 0;
};

}  // namespace gs::qbd
