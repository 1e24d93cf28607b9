// The tiled GEMM kernel must be invisible in the numbers: the packed and
// grouped entry points both have to reproduce multiply_into bit for bit
// (gemm.hpp documents why the included +-0.0 terms cannot move a bit),
// across square, rectangular, and odd shapes that exercise every
// edge-tile path of the 4x8 micro-kernel.
#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
  // Exact multiples of the 4x8 tile, sub-tile sizes, odd primes, and the
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
