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
//
// A RateProgram is the same generator compiled from its transitions, for
// chains whose shape stays fixed while some rates move (the gang fixed
// point changes only the away-period rates between iterations): a
// QbdProcess built from one re-evaluates, and re-validates, only what the
// changing rates reach.
#pragma once

#include <cstdint>
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

/// Block numbering of a QBD with b boundary-interior levels, shared by
/// RateProgram and its producers: D_i -> i, U_i -> b + i, L_i -> 2b + i,
/// then B11, A0, A1, A2 -> 3b .. 3b + 3.
struct BlockIds {
  std::size_t b = 0;  ///< boundary-interior levels
  std::uint32_t diag(std::size_t i) const { return static_cast<std::uint32_t>(i); }
  std::uint32_t up(std::size_t i) const { return static_cast<std::uint32_t>(b + i); }
  std::uint32_t down(std::size_t i) const { return static_cast<std::uint32_t>(2 * b + i); }
  std::uint32_t b11() const { return static_cast<std::uint32_t>(3 * b); }
  std::uint32_t a0() const { return b11() + 1; }
  std::uint32_t a1() const { return b11() + 2; }
  std::uint32_t a2() const { return b11() + 3; }
  std::size_t count() const { return 3 * b + 4; }
  /// The block with id `id` (GS_ASSERTs it is in range).
  static const Matrix& of(const QbdBlocks& blocks, std::uint32_t id);
  static Matrix& of(QbdBlocks& blocks, std::uint32_t id);
};

/// Reusable buffers of one RateProgram evaluation. `values` is the
/// producer's input: values[0] = 1 and the current value of every other
/// rate source. The rest is scratch the evaluation overwrites: the
/// out-rate accumulators, the re-checked row sums, the block base
/// pointers, and a sink for the writes a replay discards.
struct RateBuffers {
  std::vector<double> values;
  std::vector<double> out;
  std::vector<double> row_sums;
  std::vector<double*> blocks;
  double sink = 0.0;
};

/// A QBD generator compiled from its transitions. Transition t adds
///   rate(t) = coef(t) * values[src(t)]
/// to one cell of one block and, unless its slot is kNoOut, to the
/// out-rate accumulator slot(t); after every transition, each diagonal
/// entry registered with subtract_out() subtracts its accumulator.
/// values[0] is 1 by convention, so src 0 marks a constant rate; every
/// other source may change from one evaluation to the next.
///
/// A program is built with add()/subtract_out(), evaluated once into a
/// QbdProcess, and then sealed against that evaluation. From then on a
/// QbdProcess built from it writes the constant cells' recorded values
/// and replays only the transitions a non-constant source reaches, and
/// QbdProcess::revalue replays just those. A replay gives each cell it
/// rewrites, and each accumulator, the same += sequence from +0.0 as the
/// first evaluation, in the order the transitions were added — the same
/// bits as any assembly that adds the same rates in the same order.
/// Skipping a zero rate changes no bits (x + 0.0 == x for every x that is
/// not -0.0, and a cell built from +0.0 by adding rates is never -0.0),
/// so a producer may drop the transitions whose coefficient is zero, and
/// those whose source is zero in every evaluation the program is to
/// serve; conversely a recorded transition whose source reads zero is
/// harmless.
class RateProgram {
 public:
  /// Out-rate slot of a transition that feeds no accumulator.
  static constexpr std::uint32_t kNoOut = 0xffffffffu;

  /// `level_dims` = n_0..n_{b-1} (b may be 0), `d` the repeating level
  /// size, `out_slots` the number of out-rate accumulators and
  /// `value_count` the number of rate sources (values[0..value_count)).
  RateProgram(std::vector<std::size_t> level_dims, std::size_t d,
              std::size_t out_slots, std::size_t value_count);

  /// The block numbering of this program's shape.
  BlockIds ids() const { return {level_dims_.size()}; }

  /// Append a transition into cell (row, col) of block `block`; throws
  /// gs::InvalidArgument when the cell, slot or source is out of range.
  void add(std::uint32_t block, std::size_t row, std::size_t col,
           std::uint32_t out, double coef, std::uint32_t src);
  /// Make diagonal entry (row, row) of block `block` (a D_i, B11 or A1)
  /// subtract accumulator `out` after the transitions.
  void subtract_out(std::uint32_t block, std::size_t row, std::uint32_t out);

  /// Finish the program. `evaluated` must be the blocks of a QbdProcess
  /// built from this program (its first evaluation, validated). Finds
  /// every cell and accumulator a non-constant source reaches (directly,
  /// or through its accumulator for a diagonal), keeps the transitions a
  /// replay must re-run, records the other cells' values from
  /// `evaluated`, and checks the constant part once: its largest entry,
  /// its most negative off-diagonal entry, and the row sums of the
  /// generator rows no non-constant source touches. Drops the full
  /// transition list. Call once, after the last add.
  void seal(const QbdBlocks& evaluated);

 private:
  friend class QbdProcess;

  // A transition with its target resolved to a flat offset; the sink
  // (block count(), offset 0 / slot out_slots_) absorbs what a replay
  // must not write. `first` marks a replay's first write to its cell,
  // which starts the cell from +0.0 instead of its old value.
  struct Op {
    double coef;
    std::uint32_t src;
    std::uint16_t block;
    std::uint16_t first;
    std::uint32_t offset;
    std::uint32_t out;
  };
  struct Cell {
    std::uint32_t block;
    std::uint32_t offset;
  };
  struct Diagonal {
    Cell cell;
    std::uint32_t out;
    std::uint32_t first;
  };
  struct StaticCell {
    Cell cell;
    double value;
  };
  // A rewritten cell of a generator row that a replay re-checks: its
  // value goes into that row's sum and, when `scales` is set (a D_i,
  // B11, A0, A1 or A2 entry), into validate()'s tolerance scale.
  struct RowTerm {
    Cell cell;
    std::uint32_t row;
    std::uint32_t scales;
  };

  std::vector<std::size_t> level_dims_;
  std::size_t d_;
  std::size_t out_slots_;
  std::size_t value_count_;
  std::vector<std::size_t> rows_, cols_;  // per block id
  bool sealed_ = false;

  // Until seal: every transition and diagonal fix-up, in order, and the
  // block row each transition writes.
  std::vector<Op> all_;
  std::vector<std::uint32_t> all_rows_;
  std::vector<Diagonal> diags_;
  // After seal. The transitions and the row terms are interleaved a few
  // independent chains at a time (transitions that share no cell and no
  // accumulator; different rows) so that the sequential sums overlap;
  // each cell, accumulator and row still sees its own terms in order.
  std::vector<Op> replay_;
  std::vector<Diagonal> dyn_diags_;
  std::vector<StaticCell> static_cells_;
  std::vector<RowTerm> row_terms_;
  // Per re-checked row: the sum of its constant entries, and which of
  // validate()'s row kinds it is (0 boundary, 1 level b, 2 repeating).
  std::vector<double> row_static_;
  std::vector<std::uint8_t> row_kind_;
  // The constant part, checked once: largest |entry| (of the blocks that
  // set validate()'s scale), most negative off-diagonal entry, and per
  // row kind the largest |row sum| of the rows no replay touches.
  double static_max_abs_ = 0.0;
  double static_min_offdiag_ = 0.0;
  double static_row_sum_[3] = {0.0, 0.0, 0.0};
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

  /// Evaluate `program` at `buf.values` into fresh blocks — every
  /// transition before the program is sealed, its constant cells and
  /// replay after — then validate as above. Every evaluated transition
  /// rate must be finite and non-negative, and every source value finite
  /// (gs::InvalidArgument otherwise).
  QbdProcess(const RateProgram& program, RateBuffers& buf);

  /// Re-evaluate, in place, the part of a sealed `program` that its
  /// non-constant sources reach, at new `buf.values`. `program` must be
  /// the one this process was built from. The checks run on what can
  /// change: every replayed rate (finite, non-negative), every source
  /// value (finite), and the row sums of every generator row the replay
  /// touched, summed from the program's nonzeros against validate()'s
  /// tolerance; the constant entries, checked when the program was
  /// sealed, are re-tested against that tolerance in O(1). This is the
  /// fixed-point iteration's revalue path: the gang chains keep their
  /// shapes while only the away-period rates change.
  void revalue(const RateProgram& program, RateBuffers& buf);

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
  // Point buf.blocks at this process's blocks (index = block id, the last
  // entry at buf.sink), size buf.out, and check the source values.
  void bind(const RateProgram& program, RateBuffers& buf);
  // Run a sealed program's replay: its transitions and diagonal fix-ups,
  // each rewritten cell starting from +0.0 at its first write.
  void replay(const RateProgram& program, RateBuffers& buf);

  QbdBlocks blocks_;
  std::size_t boundary_size_ = 0;
};

}  // namespace gs::qbd
