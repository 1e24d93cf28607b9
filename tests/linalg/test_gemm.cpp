// The tiled GEMM kernel must be invisible in the numbers: the packed and
// grouped entry points both have to reproduce multiply_into bit for bit
// (gemm.hpp documents why the included +-0.0 terms cannot move a bit),
// across square, rectangular, and odd shapes that exercise every
// edge-tile path of the 4x4 micro-kernel.
#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace {

using namespace gs::linalg;

// Deterministic pseudo-random values (no <random> to keep the bit pattern
// platform-independent): a small LCG mapped into [-1, 1].
double lcg_value(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(static_cast<std::int64_t>(state >> 11)) /
         static_cast<double>(int64_t{1} << 52);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::uint64_t state = seed;
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = lcg_value(state);
  return m;
}

// Sparse-ish variant: zero entries exercise the included-zero-term part
// of the bitwise argument (multiply_into skips them, the tile does not).
Matrix random_sparse(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::uint64_t state = seed;
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = lcg_value(state);
      if (v > -0.4) m(i, j) = v;  // ~30% structural zeros
    }
  return m;
}

void check_shape(std::size_t n, std::size_t k, std::size_t m,
                 std::uint64_t seed, bool sparse) {
  SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
               " m=" + std::to_string(m) + (sparse ? " sparse" : " dense"));
  const Matrix a =
      sparse ? random_sparse(n, k, seed) : random_matrix(n, k, seed);
  const Matrix b =
      sparse ? random_sparse(k, m, seed ^ 0xabcddcba) : random_matrix(k, m, seed ^ 0xabcddcba);

  Matrix ref;
  multiply_into(ref, a, b);

  GemmPackA pa;
  GemmPackB pb;
  pa.pack(a);
  pb.pack(b);
  Matrix out;
  gemm_packed_into(out, pa, pb);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0);
}

TEST(Gemm, MatchesMultiplyIntoAcrossShapes) {
  // Exact multiples of the 4x4 tile, sub-tile sizes, odd primes, and the
  // paper-range square sizes.
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 28, 31, 64};
  std::uint64_t seed = 1;
  for (std::size_t n : sizes)
    for (std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                          std::size_t{13}, std::size_t{32}})
      check_shape(n, (n % 5) + 1 + n / 2, m, ++seed, (n + m) % 3 == 0);
}

TEST(Gemm, PaperRangeSquares) {
  for (std::size_t d : {std::size_t{28}, std::size_t{41}, std::size_t{96},
                        std::size_t{128}}) {
    check_shape(d, d, d, d, /*sparse=*/false);
    check_shape(d, d, d, d + 1, /*sparse=*/true);
  }
}

TEST(Gemm, GroupedMatchesIndividual) {
  // One squaring-pass-shaped group: two A-side and two B-side packs, four
  // products, exactly how solve_r_logreduction drives it.
  const Matrix h = random_matrix(33, 33, 7);
  const Matrix l = random_sparse(33, 33, 8);
  GemmPackA ha, la;
  GemmPackB hb, lb;
  ha.pack(h);
  la.pack(l);
  hb.pack(h);
  lb.pack(l);
  Matrix u, lh, hh, ll;
  const GemmOp ops[4] = {
      {&u, &ha, &lb}, {&lh, &la, &hb}, {&hh, &ha, &hb}, {&ll, &la, &lb}};
  gemm_grouped(ops, 4);

  Matrix ref;
  multiply_into(ref, h, l);
  EXPECT_EQ(max_abs_diff(u, ref), 0.0);
  multiply_into(ref, l, h);
  EXPECT_EQ(max_abs_diff(lh, ref), 0.0);
  multiply_into(ref, h, h);
  EXPECT_EQ(max_abs_diff(hh, ref), 0.0);
  multiply_into(ref, l, l);
  EXPECT_EQ(max_abs_diff(ll, ref), 0.0);
}

TEST(Gemm, PackBuffersAreReusable) {
  GemmPackA pa;
  GemmPackB pb;
  Matrix out;
  // Repack a same-shaped matrix into warm buffers: must match a cold run.
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    const Matrix a = random_matrix(19, 23, seed);
    const Matrix b = random_matrix(23, 11, seed + 50);
    Matrix ref;
    multiply_into(ref, a, b);
    pa.pack(a);
    pb.pack(b);
    gemm_packed_into(out, pa, pb);
    EXPECT_EQ(max_abs_diff(out, ref), 0.0);
  }
  // Shape changes reshape the packs too.
  const Matrix a = random_matrix(6, 40, 9);
  const Matrix b = random_matrix(40, 30, 10);
  Matrix ref;
  multiply_into(ref, a, b);
  pa.pack(a);
  pb.pack(b);
  gemm_packed_into(out, pa, pb);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0);
}

// Byte equality, so a -0.0 where multiply_into has +0.0 fails too.
bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// A left operand whose every other 4-row panel has an all-zero k-slice
// (dropped by the pack) next to mixed slices (kept with their zeros), and
// negative entries, so products of opposite signs meet in the sums.
Matrix slice_pattern(std::size_t rows, std::size_t depth, std::uint64_t seed) {
  Matrix m = random_matrix(rows, depth, seed);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t k = 0; k < depth; ++k) {
      if (k % 3 == 1) m(i, k) = 0.0;                      // all-zero slice
      if (k % 3 == 2 && (i + k) % 2 == 0) m(i, k) = 0.0;  // mixed slice
    }
  return m;
}

TEST(Gemm, PackedAndGroupedAreBitwiseMultiplyIntoAtTheTile) {
  // The Figure 2 block (12 x 12), the log reduction's thin products on
  // A2's two live columns (12 x 2 and 2 x 12), an odd shape with edge
  // tiles on both sides (13 x 5), and single rows.
  struct Shape {
    std::size_t n, k, m;
  };
  const Shape shapes[] = {{12, 12, 12}, {12, 12, 2}, {12, 2, 2}, {2, 12, 12},
                          {2, 2, 12},   {13, 7, 5},  {13, 13, 5}, {1, 9, 1},
                          {1, 12, 12},  {1, 1, 3}};
  std::uint64_t seed = 40;
  for (const Shape& s : shapes) {
    for (const bool all_zero : {false, true}) {
      SCOPED_TRACE(std::to_string(s.n) + "x" + std::to_string(s.k) + "x" +
                   std::to_string(s.m) + (all_zero ? " zero" : " mixed"));
      const Matrix a = all_zero ? Matrix(s.n, s.k, 0.0)
                                : slice_pattern(s.n, s.k, ++seed);
      const Matrix b = slice_pattern(s.k, s.m, ++seed);
      Matrix ref;
      multiply_into(ref, a, b);
      GemmPackA pa;
      GemmPackB pb;
      pa.pack(a);
      pb.pack(b);
      Matrix out(3, 3, 7.0);  // stale contents must not survive
      gemm_packed_into(out, pa, pb);
      EXPECT_TRUE(same_bytes(out, ref));

      // The same product twice in one grouped pass, beside its transpose
      // pair, over shared packs.
      const Matrix bt = b.transpose();
      const Matrix at = a.transpose();
      GemmPackA pbt;
      GemmPackB pat;
      pbt.pack(bt);
      pat.pack(at);
      Matrix g1, g2, g3;
      const GemmOp ops[3] = {
          {&g1, &pa, &pb}, {&g2, &pbt, &pat}, {&g3, &pa, &pb}};
      gemm_grouped(ops, 3);
      Matrix ref_t;
      multiply_into(ref_t, bt, at);
      EXPECT_TRUE(same_bytes(g1, ref));
      EXPECT_TRUE(same_bytes(g2, ref_t));
      EXPECT_TRUE(same_bytes(g3, ref));
    }
  }
}

TEST(Gemm, RejectsShapeMismatch) {
  const Matrix a = random_matrix(4, 5, 3);
  const Matrix b = random_matrix(6, 4, 4);
  Matrix out;
  GemmPackA pa;
  GemmPackB pb;
  pa.pack(a);
  pb.pack(b);
  EXPECT_THROW(gemm_packed_into(out, pa, pb), gs::InvalidArgument);
}

}  // namespace
