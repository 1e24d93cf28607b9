// Structure-of-arrays batches of same-shaped dense matrices and the
// packed, lane-masked GEMM over them.
//
// A BatchMatrix stores W matrices of one shape lane-major — entry (i, j)
// holds its W lane values contiguously — so the per-entry work of the
// scalar tiled GEMM (linalg/gemm.hpp) becomes a W-wide vector operation
// over consecutive doubles. The solvers themselves run scalar; this
// kernel is kept as the measured reference for the machine's multiply
// throughput (the benchmark's packed-GEMM peak).
//
// Bitwise discipline: for each lane, the arithmetic performed is the
// scalar kernel's arithmetic in the scalar kernel's order, so extracting
// lane l of a result gives exactly the bits the scalar multiply on lane
// l's inputs produces. The one deliberate, value-preserving deviation:
// the A-side pack drops a k-slice only when it is zero in every active
// lane (the scalar pack drops per lane). Including a lane's 0.0 * b term
// adds +-0.0 to an accumulator that starts at +0.0 and therefore never
// holds -0.0, which is a bitwise no-op — provided the operands are
// finite, the same precondition linalg/gemm.hpp spells out for the
// scalar kernel. A masked-out lane is never written: its storage keeps
// its bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace gs::linalg {

/// Hard cap on lanes per batch: keeps per-call stack scratch (one double
/// per lane) fixed-size. 16 lanes of doubles fill two cache lines — wider
/// batches stop paying anyway because the working set scales with W.
constexpr std::size_t kMaxBatchLanes = 16;

/// Rows per packed A panel / columns per packed B panel of the batched
/// GEMM's register tile. The batch kernel walks each tile in lane-wide
/// register sub-tiles, so it keeps the 4 x 8 shape the scalar kernel
/// (linalg/gemm.hpp) gave up for its own accumulator budget.
constexpr std::size_t kBatchGemmMr = 4;
constexpr std::size_t kBatchGemmNr = 8;

/// Which lanes of a batch an operation touches. Lanes outside the mask
/// are left bit-for-bit untouched by every kernel in this header.
class LaneMask {
 public:
  LaneMask() = default;
  explicit LaneMask(std::size_t width, bool on = true)
      : on_(width, on ? 1 : 0) {}

  std::size_t width() const { return on_.size(); }
  bool operator[](std::size_t lane) const { return on_[lane] != 0; }
  void set(std::size_t lane, bool on) { on_[lane] = on ? 1 : 0; }

  bool all() const {
    for (const unsigned char v : on_)
      if (v == 0) return false;
    return !on_.empty();
  }

 private:
  std::vector<unsigned char> on_;
};

/// W same-shaped dense matrices in lane-major SoA storage: the W lane
/// values of entry (i, j) are contiguous at data()[(i*cols + j)*W ..].
class BatchMatrix {
 public:
  BatchMatrix() = default;
  BatchMatrix(std::size_t rows, std::size_t cols, std::size_t width);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t width() const { return width_; }

  double& operator()(std::size_t r, std::size_t c, std::size_t lane) {
    return data_[(r * cols_ + c) * width_ + lane];
  }
  double operator()(std::size_t r, std::size_t c, std::size_t lane) const {
    return data_[(r * cols_ + c) * width_ + lane];
  }
  /// The W contiguous lane values of entry (r, c).
  double* lanes(std::size_t r, std::size_t c) {
    return data_.data() + (r * cols_ + c) * width_;
  }
  const double* lanes(std::size_t r, std::size_t c) const {
    return data_.data() + (r * cols_ + c) * width_;
  }

  /// Reshape to (rows, cols, width). A no-op when the shape already
  /// matches (every lane keeps its bits — the workspace reuse path);
  /// otherwise reallocates and zero-fills all lanes.
  void ensure(std::size_t rows, std::size_t cols, std::size_t width);

  /// Scatter a scalar matrix into lane `lane` (shapes must match).
  void load_lane(std::size_t lane, const Matrix& src);
  /// Gather lane `lane` into a scalar matrix, reusing dst's storage.
  void store_lane(std::size_t lane, Matrix& dst) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t width_ = 0;
  std::vector<double> data_;
};

/// The left operand of a batched GEMM, repacked into kBatchGemmMr-row
/// panels of W-wide lane vectors: panel p holds rows [p*MR, p*MR + MR) k-major,
/// slice t of panel p storing the MR x W doubles [t*MR*W + r*W + l], so
/// the micro-kernel reads contiguous lane vectors. Packing keeps the
/// scalar GemmPackA's sparsity awareness under the batch contract: a
/// k-slice is dropped only when its MR values are zero in *every active
/// lane* (the per-lane scalar pack drops per-lane; the extra retained
/// terms are +-0.0 no-ops for the lanes that hold a zero — the
/// finite-operands argument of the file comment). Edge rows are
/// zero-padded; inactive lanes are packed as-is (their products are
/// computed but never stored). Buffers are reusable across repacks.
class BatchGemmPackA {
 public:
  /// Repack from `a` (any shape); `active` drives the slice-drop rule.
  void pack(const BatchMatrix& a, const LaneMask& active);

  std::size_t rows() const { return rows_; }
  std::size_t depth() const { return depth_; }
  std::size_t width() const { return width_; }
  std::size_t panels() const {
    return (rows_ + kBatchGemmMr - 1) / kBatchGemmMr;
  }
  /// Panel p: panel_len(p) retained slices of kBatchGemmMr * width doubles.
  const double* panel(std::size_t p) const {
    return buf_.data() + p * depth_ * kBatchGemmMr * width_;
  }
  /// Ascending original k of each retained slice in panel p.
  const std::uint32_t* panel_k(std::size_t p) const {
    return idx_.data() + p * depth_;
  }
  /// Number of retained (not-all-zero-across-active-lanes) slices.
  std::size_t panel_len(std::size_t p) const { return len_[p]; }

 private:
  std::size_t rows_ = 0;
  std::size_t depth_ = 0;
  std::size_t width_ = 0;
  std::vector<double> buf_;
  std::vector<std::uint32_t> idx_;
  std::vector<std::uint32_t> len_;
};

/// The right operand of a batched GEMM, repacked into kBatchGemmNr-column
/// panels of W-wide lane vectors: value (k, c, l) of panel p lives at
/// [k*NR*W + c*W + l], zero-padded past the column edge. No drop rule —
/// the A-side pack owns sparsity, exactly like the scalar GemmPackB.
class BatchGemmPackB {
 public:
  /// Repack from `b` (any shape).
  void pack(const BatchMatrix& b);

  std::size_t cols() const { return cols_; }
  std::size_t depth() const { return depth_; }
  std::size_t width() const { return width_; }
  std::size_t panels() const {
    return (cols_ + kBatchGemmNr - 1) / kBatchGemmNr;
  }
  /// Panel p: depth * kBatchGemmNr * width doubles (see the class comment).
  const double* panel(std::size_t p) const {
    return buf_.data() + p * depth_ * kBatchGemmNr * width_;
  }

 private:
  std::size_t cols_ = 0;
  std::size_t depth_ = 0;
  std::size_t width_ = 0;
  std::vector<double> buf_;
};

/// out = (unpacked a) * (unpacked b) on the active lanes from
/// already-packed operands: per active lane, bitwise identical to the
/// scalar multiply on the matrices the packs came from. Inactive lanes
/// are computed into the stack tile but never stored. The packs' depths
/// and widths must agree; `active` must be (a subset of) the mask the A
/// pack was built with — a slice dropped at pack time must still be
/// all-zero on every lane the multiply stores.
void batch_gemm_packed_into(BatchMatrix& out, const BatchGemmPackA& a,
                            const BatchGemmPackB& b, const LaneMask& active);

}  // namespace gs::linalg
