#include "linalg/batch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gs::linalg {

namespace {

constexpr std::size_t MR = kBatchGemmMr;
constexpr std::size_t NR = kBatchGemmNr;

// One MR x NR tile of W-wide lane accumulators over a panel's retained
// k-slices. Per lane and per
// accumulator the surviving k terms arrive in ascending order, one
// multiply and one add each (dropped slices were all-zero across the
// active lanes, so their terms were +-0.0 no-ops for every lane that
// gets stored). All lanes accumulate; the caller masks the store.
//
// The full MR x NR x W accumulator block is W times a scalar tile's
// and cannot live in registers (256 doubles at W = 8), so the tile is
// walked in RB x CB register sub-tiles sized so RB * CB * W doubles fit
// the vector register file, each streaming the panel's k-slices once.
// Sub-tiling never touches a single accumulator's addition order — every
// (r, c, lane) sum still sees its k terms ascending — so the result is
// bitwise identical to the flat walk at any sub-tile shape.
template <std::size_t W, std::size_t RB, std::size_t CB>
inline void batch_micro_kernel_t(const double* __restrict ap,
                                 const std::uint32_t* __restrict ki,
                                 std::size_t len, const double* __restrict bp,
                                 double* __restrict acc) {
  static_assert(MR % RB == 0 && NR % CB == 0, "sub-tile must divide the tile");
  for (std::size_t r0 = 0; r0 < MR; r0 += RB) {
    for (std::size_t c0 = 0; c0 < NR; c0 += CB) {
      double s[RB * CB * W] = {0.0};
      for (std::size_t t = 0; t < len; ++t) {
        const double* __restrict av = ap + (t * MR + r0) * W;
        const double* __restrict bv = bp + (ki[t] * NR + c0) * W;
        for (std::size_t rr = 0; rr < RB; ++rr) {
          const double* __restrict ar = av + rr * W;
          for (std::size_t cc = 0; cc < CB; ++cc) {
            const double* __restrict bc = bv + cc * W;
            double* __restrict o = s + (rr * CB + cc) * W;
            for (std::size_t l = 0; l < W; ++l) o[l] += ar[l] * bc[l];
          }
        }
      }
      for (std::size_t rr = 0; rr < RB; ++rr)
        for (std::size_t cc = 0; cc < CB; ++cc)
          for (std::size_t l = 0; l < W; ++l)
            acc[((r0 + rr) * NR + c0 + cc) * W + l] = s[(rr * CB + cc) * W + l];
    }
  }
}

// Runtime-width fallback for lane counts without a specialization below.
// Same ascending-k order per accumulator, so bitwise identical to the
// templated walks.
inline void batch_micro_kernel_any(const double* __restrict ap,
                                   const std::uint32_t* __restrict ki,
                                   std::size_t len, const double* __restrict bp,
                                   std::size_t w, double* __restrict acc) {
  for (std::size_t x = 0; x < MR * NR * w; ++x) acc[x] = 0.0;
  for (std::size_t t = 0; t < len; ++t) {
    const double* __restrict av = ap + t * MR * w;
    const double* __restrict bv = bp + ki[t] * NR * w;
    for (std::size_t r = 0; r < MR; ++r) {
      const double* __restrict ar = av + r * w;
      double* __restrict arow = acc + r * NR * w;
      for (std::size_t c = 0; c < NR; ++c) {
        const double* __restrict bc = bv + c * w;
        double* __restrict o = arow + c * w;
        for (std::size_t l = 0; l < w; ++l) o[l] += ar[l] * bc[l];
      }
    }
  }
}

// Dispatch on the lane width: the power-of-two widths the solvers use
// get register-sized sub-tiles (RB * CB * W <= 16 doubles — the SSE2
// register file; wider ISAs just fuse more lanes per vector).
inline void batch_micro_kernel(const double* __restrict ap,
                               const std::uint32_t* __restrict ki,
                               std::size_t len, const double* __restrict bp,
                               std::size_t w, double* __restrict acc) {
  switch (w) {
    case 1: batch_micro_kernel_t<1, 4, 4>(ap, ki, len, bp, acc); break;
    case 2: batch_micro_kernel_t<2, 4, 2>(ap, ki, len, bp, acc); break;
    case 4: batch_micro_kernel_t<4, 2, 2>(ap, ki, len, bp, acc); break;
    case 8: batch_micro_kernel_t<8, 2, 1>(ap, ki, len, bp, acc); break;
    case 16: batch_micro_kernel_t<16, 1, 1>(ap, ki, len, bp, acc); break;
    default: batch_micro_kernel_any(ap, ki, len, bp, w, acc); break;
  }
}

}  // namespace

BatchMatrix::BatchMatrix(std::size_t rows, std::size_t cols,
                         std::size_t width)
    : rows_(rows), cols_(cols), width_(width), data_(rows * cols * width, 0.0) {}

void BatchMatrix::ensure(std::size_t rows, std::size_t cols,
                         std::size_t width) {
  if (rows_ == rows && cols_ == cols && width_ == width) return;
  rows_ = rows;
  cols_ = cols;
  width_ = width;
  data_.assign(rows * cols * width, 0.0);
}

void BatchMatrix::load_lane(std::size_t lane, const Matrix& src) {
  GS_CHECK(src.rows() == rows_ && src.cols() == cols_ && lane < width_,
           "BatchMatrix::load_lane shape mismatch");
  const double* s = src.data();
  for (std::size_t e = 0; e < rows_ * cols_; ++e)
    data_[e * width_ + lane] = s[e];
}

void BatchMatrix::store_lane(std::size_t lane, Matrix& dst) const {
  GS_CHECK(lane < width_, "BatchMatrix::store_lane lane out of range");
  dst.assign_zero(rows_, cols_);
  double* d = dst.data();
  for (std::size_t e = 0; e < rows_ * cols_; ++e)
    d[e] = data_[e * width_ + lane];
}

void BatchGemmPackA::pack(const BatchMatrix& a, const LaneMask& active) {
  rows_ = a.rows();
  depth_ = a.cols();
  width_ = a.width();
  GS_CHECK(active.width() == width_, "batch pack: mask width mismatch");
  const std::size_t w = width_;
  const std::size_t np = panels();
  buf_.resize(np * depth_ * MR * w);
  idx_.resize(np * depth_);
  len_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    const std::size_t i0 = p * MR;
    const std::size_t mr = std::min(MR, rows_ - i0);
    double* dst = buf_.data() + p * depth_ * MR * w;
    std::uint32_t* ki = idx_.data() + p * depth_;
    std::size_t len = 0;
    for (std::size_t k = 0; k < depth_; ++k) {
      // Drop the slice only when zero in every MR row of every active
      // lane — the batch form of the scalar all-zero-slice drop.
      bool nonzero = false;
      for (std::size_t r = 0; r < mr && !nonzero; ++r) {
        const double* al = a.lanes(i0 + r, k);
        for (std::size_t l = 0; l < w; ++l)
          if (active[l] && al[l] != 0.0) {
            nonzero = true;
            break;
          }
      }
      if (!nonzero) continue;
      double* slice = dst + len * MR * w;
      for (std::size_t r = 0; r < mr; ++r) {
        const double* al = a.lanes(i0 + r, k);
        double* sr = slice + r * w;
        for (std::size_t l = 0; l < w; ++l) sr[l] = al[l];
      }
      for (std::size_t r = mr; r < MR; ++r)
        for (std::size_t l = 0; l < w; ++l) slice[r * w + l] = 0.0;
      ki[len] = static_cast<std::uint32_t>(k);
      ++len;
    }
    len_[p] = static_cast<std::uint32_t>(len);
  }
}

void BatchGemmPackB::pack(const BatchMatrix& b) {
  depth_ = b.rows();
  cols_ = b.cols();
  width_ = b.width();
  const std::size_t w = width_;
  const std::size_t np = panels();
  buf_.resize(np * depth_ * NR * w);
  for (std::size_t p = 0; p < np; ++p) {
    const std::size_t j0 = p * NR;
    const std::size_t nr = std::min(NR, cols_ - j0);
    double* dst = buf_.data() + p * depth_ * NR * w;
    for (std::size_t k = 0; k < depth_; ++k) {
      const double* brow = b.lanes(k, j0);
      double* drow = dst + k * NR * w;
      for (std::size_t c = 0; c < nr; ++c)
        for (std::size_t l = 0; l < w; ++l) drow[c * w + l] = brow[c * w + l];
      for (std::size_t c = nr; c < NR; ++c)
        for (std::size_t l = 0; l < w; ++l) drow[c * w + l] = 0.0;
    }
  }
}

void batch_gemm_packed_into(BatchMatrix& out, const BatchGemmPackA& a,
                            const BatchGemmPackB& b, const LaneMask& active) {
  GS_CHECK(a.depth() == b.depth() && a.width() == b.width(),
           "batch gemm: packed operand mismatch");
  const std::size_t n = a.rows();
  const std::size_t m = b.cols();
  const std::size_t w = a.width();
  GS_CHECK(w <= kMaxBatchLanes,
           "batch gemm: width exceeds kMaxBatchLanes");
  out.ensure(n, m, w);
  const bool all = active.all();
  // MR x NR x W accumulators — 4 KiB of stack at the lane cap.
  double acc[MR * NR * kMaxBatchLanes];
  const std::size_t pa_count = a.panels();
  const std::size_t pb_count = b.panels();
  for (std::size_t pa = 0; pa < pa_count; ++pa) {
    const std::size_t i0 = pa * MR;
    const std::size_t mr = std::min(MR, n - i0);
    const double* ap = a.panel(pa);
    const std::uint32_t* ki = a.panel_k(pa);
    const std::size_t len = a.panel_len(pa);
    for (std::size_t pb = 0; pb < pb_count; ++pb) {
      const std::size_t j0 = pb * NR;
      const std::size_t nr = std::min(NR, m - j0);
      batch_micro_kernel(ap, ki, len, b.panel(pb), w, acc);
      // Masked store: padded rows/columns computed +0.0 and are dropped,
      // inactive lanes keep their bits.
      for (std::size_t r = 0; r < mr; ++r) {
        const double* arow = acc + r * NR * w;
        for (std::size_t c = 0; c < nr; ++c) {
          double* o = out.lanes(i0 + r, j0 + c);
          const double* s = arow + c * w;
          if (all) {
            for (std::size_t l = 0; l < w; ++l) o[l] = s[l];
          } else {
            for (std::size_t l = 0; l < w; ++l)
              if (active[l]) o[l] = s[l];
          }
        }
      }
    }
  }
}

}  // namespace gs::linalg
