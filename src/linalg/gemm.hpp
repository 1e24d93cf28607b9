// Packed, register-tiled GEMM for the small dense products the QBD
// solvers iterate on (repeating blocks of d = 12 on the paper's Figure 2
// system, up to d = 128 on bench/qbd_kernels' chain).
//
// Why another multiply kernel: multiply_into streams each output row
// through memory once per k (a read-modify-write axpy), so at the sizes
// the log-reduction squaring loop runs, the kernel is bound on out/B
// traffic, not flops. The kernel here packs A into MR-row panels and B
// into NR-column panels (contiguous, zero-padded at the edges), then
// computes MR x NR output tiles in register accumulators with one store
// per output element. Packing also amortizes: the grouped entry point
// gemm_grouped runs several products over shared packs, which is exactly
// what one log-reduction iteration needs (H and L each appear in three
// of the four squaring products).
//
// Bitwise discipline (the same contract as linalg/sparse.hpp and
// linalg/batch.hpp): for every output element (i, j) the terms
// a(i, k) * b(k, j) are accumulated in ascending-k order, one rounded
// multiply and one rounded add per term, starting from +0.0. Where this
// kernel and multiply_into differ in *which* terms they touch, the
// difference is confined to zero a(i, k) terms, which cannot move a bit:
// 0.0 * b is +-0.0, and adding +-0.0 to an accumulator that starts at
// +0.0 (and therefore never holds -0.0) is a bitwise no-op — provided
// the operands are finite, the precondition all structured kernels in
// this library share. Concretely, packing drops k-slices whose kGemmMr
// A-values are all zero (the QBD iterates are not uniformly dense, so
// this matters as much as the register tiling), while mixed slices keep
// their embedded zeros; multiply_into instead skips zero a(i, k)
// individually. Edge padding is all-zero and padded
// lanes are never stored. The kernel translation unit is compiled with
// -ffp-contract=off alongside the rest of gs_linalg, so no
// fused-multiply-add contraction can break the two-roundings-per-term
// equality. tests/linalg/test_gemm.cpp pins gemm_into == multiply_into
// bit for bit across square, rectangular, and odd shapes, sparse and
// dense.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace gs::linalg {

/// Rows per packed A panel / per register tile.
constexpr std::size_t kGemmMr = 4;
/// Columns per packed B panel / per register tile.
constexpr std::size_t kGemmNr = 8;

/// The left operand of a GEMM, repacked into kGemmMr-row panels: panel p
/// holds rows [p*MR, p*MR + MR) k-major, so the micro-kernel reads MR
/// contiguous values per k. Rows past the edge are zero-padded. Packing
/// is sparsity-aware: k-slices whose kGemmMr values are all zero are
/// dropped (a bitwise no-op — see the file comment), and the retained
/// slices are stored compacted alongside their k indices, so the
/// micro-kernel's depth loop runs over nonzero slices only. The buffers
/// are reusable — repacking a same-shaped matrix reallocates nothing.
class GemmPackA {
 public:
  /// Repack from `a` (any shape).
  void pack(const Matrix& a);

  std::size_t rows() const { return rows_; }
  std::size_t depth() const { return depth_; }
  std::size_t panels() const { return (rows_ + kGemmMr - 1) / kGemmMr; }
  /// Panel p: panel_len(p) retained slices, slice t holding kGemmMr
  /// doubles at [t*MR + r] for original depth index panel_k(p)[t].
  const double* panel(std::size_t p) const {
    return buf_.data() + p * depth_ * kGemmMr;
  }
  /// Ascending original k of each retained slice in panel p.
  const std::uint32_t* panel_k(std::size_t p) const {
    return idx_.data() + p * depth_;
  }
  /// Number of retained (not-all-zero) k-slices in panel p.
  std::size_t panel_len(std::size_t p) const { return len_[p]; }

 private:
  std::size_t rows_ = 0;
  std::size_t depth_ = 0;
  std::vector<double> buf_;
  std::vector<std::uint32_t> idx_;
  std::vector<std::uint32_t> len_;
};

/// The right operand, repacked into kGemmNr-column panels: panel p holds
/// columns [p*NR, p*NR + NR) k-major, zero-padded past the edge.
class GemmPackB {
 public:
  /// Repack from `b` (any shape).
  void pack(const Matrix& b);

  std::size_t cols() const { return cols_; }
  std::size_t depth() const { return depth_; }
  std::size_t panels() const { return (cols_ + kGemmNr - 1) / kGemmNr; }
  /// Panel p: depth * kGemmNr doubles, value (k, c) at [k*NR + c].
  const double* panel(std::size_t p) const {
    return buf_.data() + p * depth_ * kGemmNr;
  }

 private:
  std::size_t cols_ = 0;
  std::size_t depth_ = 0;
  std::vector<double> buf_;
};

/// out = (unpacked a) * (unpacked b) from already-packed operands.
/// Bitwise identical to multiply_into on the matrices the packs came
/// from. The packs' depths must agree.
void gemm_packed_into(Matrix& out, const GemmPackA& a, const GemmPackB& b);

/// Reusable pack buffers for gemm_into.
struct GemmWorkspace {
  GemmPackA a;
  GemmPackB b;
};

/// Pack + multiply: out = a b, bitwise identical to multiply_into(out,
/// a, b). `out` must not alias an input (packing would hide the aliasing
/// from the caller, so it is rejected up front like multiply_into does).
void gemm_into(Matrix& out, const Matrix& a, const Matrix& b,
               GemmWorkspace& ws);

/// The register-tiled kernel reading a and b in place (no packing) —
/// the bench reference that isolates the packing payoff. Same bitwise
/// contract as gemm_into.
void gemm_tiled_unpacked_into(Matrix& out, const Matrix& a, const Matrix& b);

/// One product of a grouped pass: out = a * b over shared packs.
/// Non-owning; everything must outlive the gemm_grouped call.
struct GemmOp {
  Matrix* out = nullptr;
  const GemmPackA* a = nullptr;
  const GemmPackB* b = nullptr;
};

/// Run `count` products whose operands share packs (pack once, multiply
/// many — one log-reduction squaring pass is four products over two
/// packed iterates). Outputs must be distinct matrices and must not
/// alias any matrix a pack was built from.
void gemm_grouped(const GemmOp* ops, std::size_t count);

/// Compile-time identity of the micro-kernel ("tiled_packed_<MR>x<NR>"),
/// recorded in BENCH_qbd.json so perf numbers name the kernel they
/// measured.
const char* gemm_kernel_variant();

}  // namespace gs::linalg
