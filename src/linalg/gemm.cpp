#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::linalg {

namespace {

constexpr std::size_t MR = kGemmMr;
constexpr std::size_t NR = kGemmNr;

// Two doubles of one vector register (an SSE2 xmm register on the x86-64
// baseline). GCC/Clang vector arithmetic is elementwise IEEE, one rounding
// per multiply and per add, so each lane rounds exactly as scalar code
// would; -ffp-contract=off keeps the pairs unfused.
typedef double V2 __attribute__((vector_size(2 * sizeof(double))));

inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

// One MR x NR register tile over a panel's retained k-slices, stored
// into the mr x nr corner of `out` (row stride ldo). Per accumulator the
// surviving k terms arrive in ascending order, one multiply and one add
// each — the bitwise contract (dropped slices were all-zero, so their
// terms were no-ops). The accumulators are MR x NR/2 register pairs for
// the whole depth loop (see gemm.hpp for the budget); the A slices are
// contiguous and the B rows are fetched by the slice's original k.
// Padded rows/columns computed +0.0 and are never stored; every loop
// runs a fixed trip count, so the accumulators never go to memory.
inline void micro_kernel(const double* ap, const std::uint32_t* ki,
                         std::size_t len, const double* bp, double* out,
                         std::size_t ldo, std::size_t mr, std::size_t nr) {
  static_assert(NR == 4, "the tile store below is written for 4 columns");
  V2 acc[MR][NR / 2] = {};  // +0.0 in every lane
  for (std::size_t t = 0; t < len; ++t) {
    const double* av = ap + t * MR;
    const double* bv = bp + ki[t] * NR;
    const V2 b0 = load2(bv);
    const V2 b1 = load2(bv + 2);
    for (std::size_t r = 0; r < MR; ++r) {
      const V2 ar = {av[r], av[r]};
      acc[r][0] += ar * b0;
      acc[r][1] += ar * b1;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    if (r >= mr) break;
    double* orow = out + r * ldo;
    if (nr >= 2) {
      store2(orow, acc[r][0]);
    } else {
      orow[0] = acc[r][0][0];
    }
    if (nr == 4) {
      store2(orow + 2, acc[r][1]);
    } else if (nr == 3) {
      orow[2] = acc[r][1][0];
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
    if (len == 0) continue;  // all-zero rows: out's +0.0 fill stands
    for (std::size_t pb = 0; pb < pb_count; ++pb) {
      const std::size_t j0 = pb * NR;
      const std::size_t nr = std::min(NR, m - j0);
      micro_kernel(ap, ki, len, b.panel(pb), out.data() + i0 * m + j0, m,
                   mr, nr);
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
    // Branch-free: rows past mr read a single +0.0 (stride 0), every
    // slice is written at position len, and len advances past it only
    // when it holds a nonzero, so an all-zero slice (a bitwise no-op) is
    // overwritten by the next one or left unread past panel_len.
    static constexpr double kZero = 0.0;
    const double* row[MR];
    std::size_t step[MR];
    for (std::size_t r = 0; r < MR; ++r) {
      row[r] = r < mr ? a.data() + (i0 + r) * depth_ : &kZero;
      step[r] = r < mr ? 1 : 0;
    }
    std::size_t len = 0;
    for (std::size_t k = 0; k < depth_; ++k) {
      double* out = dst + len * MR;
      bool nonzero = false;
      for (std::size_t r = 0; r < MR; ++r) {
        out[r] = *row[r];
        nonzero |= *row[r] != 0.0;
        row[r] += step[r];
      }
      ki[len] = static_cast<std::uint32_t>(k);
      len += nonzero ? 1 : 0;
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
