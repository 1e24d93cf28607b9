#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::linalg {

namespace {

constexpr std::size_t MR = kGemmMr;
constexpr std::size_t NR = kGemmNr;

// One MR x NR register tile over a panel's retained k-slices. Per
// accumulator the surviving k terms arrive in ascending order, one
// multiply and one add each — the bitwise contract (dropped slices were
// all-zero, so their terms were no-ops). The MR*NR accumulators live in
// registers for the whole loop; the A slices are contiguous and the B
// rows are fetched by the slice's original k.
inline void micro_kernel(const double* ap, const std::uint32_t* ki,
                         std::size_t len, const double* bp, double* acc) {
  for (std::size_t x = 0; x < MR * NR; ++x) acc[x] = 0.0;
  for (std::size_t t = 0; t < len; ++t) {
    const double* av = ap + t * MR;
    const double* bv = bp + ki[t] * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const double ar = av[r];
      double* arow = acc + r * NR;
      for (std::size_t c = 0; c < NR; ++c) arow[c] += ar * bv[c];
    }
  }
}

// Tile accounting accumulated locally and flushed as one obs::count per
// counter per call — the registry must never appear in the tile loop.
struct GemmCounters {
  std::uint64_t tiles = 0;
  std::uint64_t flops = 0;
  std::uint64_t calls = 0;

  void flush() const {
    obs::count("linalg.gemm.calls", calls);
    if (tiles > 0) obs::count("linalg.gemm.tiles", tiles);
    if (flops > 0) obs::count("linalg.gemm.flops", flops);
  }
};

void gemm_packed_counted(Matrix& out, const GemmPackA& a, const GemmPackB& b,
                         GemmCounters& ctr) {
  GS_CHECK(a.depth() == b.depth(), "gemm: packed operand depth mismatch");
  const std::size_t n = a.rows();
  const std::size_t m = b.cols();
  out.assign_zero(n, m);
  double acc[MR * NR];
  const std::size_t pa_count = a.panels();
  const std::size_t pb_count = b.panels();
  std::uint64_t slices = 0;
  for (std::size_t pa = 0; pa < pa_count; ++pa) {
    const std::size_t i0 = pa * MR;
    const std::size_t mr = std::min(MR, n - i0);
    const double* ap = a.panel(pa);
    const std::uint32_t* ki = a.panel_k(pa);
    const std::size_t len = a.panel_len(pa);
    slices += len;
    for (std::size_t pb = 0; pb < pb_count; ++pb) {
      const std::size_t j0 = pb * NR;
      const std::size_t nr = std::min(NR, m - j0);
      micro_kernel(ap, ki, len, b.panel(pb), acc);
      // Masked store: padded rows/columns computed +0.0 and are dropped.
      for (std::size_t r = 0; r < mr; ++r) {
        double* orow = out.data() + (i0 + r) * m + j0;
        const double* arow = acc + r * NR;
        for (std::size_t c = 0; c < nr; ++c) orow[c] = arow[c];
      }
    }
  }
  ctr.tiles += pa_count * pb_count;
  // Work actually run: dropped all-zero slices never reach the kernel.
  ctr.flops += static_cast<std::uint64_t>(2) * MR * NR * pb_count * slices;
  ctr.calls += 1;
}

}  // namespace

void GemmPackA::pack(const Matrix& a) {
  rows_ = a.rows();
  depth_ = a.cols();
  const std::size_t np = panels();
  buf_.resize(np * depth_ * MR);
  idx_.resize(np * depth_);
  len_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    const std::size_t i0 = p * MR;
    const std::size_t mr = std::min(MR, rows_ - i0);
    double* dst = buf_.data() + p * depth_ * MR;
    std::uint32_t* ki = idx_.data() + p * depth_;
    std::size_t len = 0;
    for (std::size_t k = 0; k < depth_; ++k) {
      double slice[MR];
      bool nonzero = false;
      for (std::size_t r = 0; r < mr; ++r) {
        slice[r] = a(i0 + r, k);
        nonzero = nonzero || slice[r] != 0.0;
      }
      if (!nonzero) continue;  // all-zero slice: a bitwise no-op, dropped
      for (std::size_t r = mr; r < MR; ++r) slice[r] = 0.0;
      double* out = dst + len * MR;
      for (std::size_t r = 0; r < MR; ++r) out[r] = slice[r];
      ki[len] = static_cast<std::uint32_t>(k);
      ++len;
    }
    len_[p] = static_cast<std::uint32_t>(len);
  }
}

void GemmPackB::pack(const Matrix& b) {
  depth_ = b.rows();
  cols_ = b.cols();
  const std::size_t np = panels();
  buf_.resize(np * depth_ * NR);
  for (std::size_t p = 0; p < np; ++p) {
    const std::size_t j0 = p * NR;
    const std::size_t nr = std::min(NR, cols_ - j0);
    double* dst = buf_.data() + p * depth_ * NR;
    for (std::size_t k = 0; k < depth_; ++k) {
      const double* brow = b.data() + k * cols_ + j0;
      for (std::size_t c = 0; c < nr; ++c) dst[k * NR + c] = brow[c];
      for (std::size_t c = nr; c < NR; ++c) dst[k * NR + c] = 0.0;
    }
  }
}

void gemm_packed_into(Matrix& out, const GemmPackA& a, const GemmPackB& b) {
  GemmCounters ctr;
  gemm_packed_counted(out, a, b, ctr);
  ctr.flush();
}

void gemm_grouped(const GemmOp* ops, std::size_t count) {
  GemmCounters ctr;
  for (std::size_t i = 0; i < count; ++i) {
    GS_CHECK(ops[i].out != nullptr && ops[i].a != nullptr &&
                 ops[i].b != nullptr,
             "gemm_grouped: op with a null operand");
    gemm_packed_counted(*ops[i].out, *ops[i].a, *ops[i].b, ctr);
  }
  ctr.flush();
}

}  // namespace gs::linalg
