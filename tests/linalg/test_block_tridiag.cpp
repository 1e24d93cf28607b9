#include "linalg/block_tridiag.hpp"

#include <gtest/gtest.h>

#include "linalg/lu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using gs::linalg::block_tridiag_solve;
using gs::linalg::BlockTridiagFactor;
using gs::linalg::Matrix;
using gs::linalg::Vector;

// Assemble the dense equivalent for cross-checking.
Matrix assemble(const std::vector<Matrix>& diag,
                const std::vector<Matrix>& upper,
                const std::vector<Matrix>& lower) {
  std::size_t n = 0;
  for (const auto& d : diag) n += d.rows();
  Matrix m(n, n);
  std::size_t off = 0;
  for (std::size_t i = 0; i < diag.size(); ++i) {
    m.insert_block(off, off, diag[i]);
    if (i + 1 < diag.size()) {
      m.insert_block(off, off + diag[i].rows(), upper[i]);
      m.insert_block(off + diag[i].rows(), off, lower[i]);
    }
    off += diag[i].rows();
  }
  return m;
}

TEST(BlockTridiag, SingleBlockIsPlainSolve) {
  const Matrix d{{4.0, 1.0}, {1.0, 3.0}};
  const Vector b{5.0, 4.0};
  const Vector x = block_tridiag_solve({d}, {}, {}, b);
  const Vector expect = gs::linalg::solve(d, b);
  EXPECT_LT(gs::linalg::max_abs_diff(x, expect), 1e-12);
}

TEST(BlockTridiag, ScalarBlocksMatchThomasAlgorithm) {
  // Classic tridiagonal system with 1x1 blocks.
  std::vector<Matrix> diag, upper, lower;
  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i) {
    diag.push_back(Matrix{{4.0}});
    if (i + 1 < n) {
      upper.push_back(Matrix{{1.0}});
      lower.push_back(Matrix{{1.5}});
    }
  }
  Vector b(n, 1.0);
  const Vector x = block_tridiag_solve(diag, upper, lower, b);
  const Matrix dense = assemble(diag, upper, lower);
  EXPECT_LT(gs::linalg::max_abs_diff(dense * x, b), 1e-12);
}

TEST(BlockTridiag, MixedBlockSizesMatchDenseSolve) {
  // Blocks of sizes 1, 3, 2 — the gang boundary's shape.
  gs::util::Rng rng(404);
  auto rand_block = [&](std::size_t r, std::size_t c, bool dominant) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform();
    if (dominant) {
      for (std::size_t i = 0; i < r && i < c; ++i) m(i, i) += 6.0;
    }
    return m;
  };
  const std::vector<std::size_t> sizes = {1, 3, 2};
  std::vector<Matrix> diag, upper, lower;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    diag.push_back(rand_block(sizes[i], sizes[i], true));
    if (i + 1 < sizes.size()) {
      upper.push_back(rand_block(sizes[i], sizes[i + 1], false));
      lower.push_back(rand_block(sizes[i + 1], sizes[i], false));
    }
  }
  Vector b(6);
  for (auto& v : b) v = rng.uniform() * 4.0 - 2.0;
  const Vector x = block_tridiag_solve(diag, upper, lower, b);
  const Matrix dense = assemble(diag, upper, lower);
  const Vector expect = gs::linalg::solve(dense, b);
  EXPECT_LT(gs::linalg::max_abs_diff(x, expect), 1e-10);
}

TEST(BlockTridiag, DeepChainStable) {
  // 2000 levels of a (negated) birth-death sub-generator — the effective
  // quantum use case: solve (-T) x = e and check the residual.
  const std::size_t n = 2000;
  std::vector<Matrix> diag(n, Matrix{{3.0}});
  std::vector<Matrix> upper(n - 1, Matrix{{-1.0}});
  std::vector<Matrix> lower(n - 1, Matrix{{-1.5}});
  const Vector x = block_tridiag_solve(diag, upper, lower, Vector(n, 1.0));
  // Residual check at a few positions.
  for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
    double r = 3.0 * x[i];
    if (i > 0) r -= 1.5 * x[i - 1];
    if (i + 1 < n) r -= 1.0 * x[i + 1];
    EXPECT_NEAR(r, 1.0, 1e-9) << "row " << i;
  }
}

TEST(BlockTridiag, ValidationRejectsBadShapes) {
  EXPECT_THROW(block_tridiag_solve({}, {}, {}, {}), gs::InvalidArgument);
  // Wrong off-diagonal count.
  EXPECT_THROW(
      block_tridiag_solve({Matrix{{1.0}}, Matrix{{1.0}}}, {}, {}, {1.0, 1.0}),
      gs::InvalidArgument);
  // Wrong rhs length.
  EXPECT_THROW(block_tridiag_solve({Matrix{{1.0}}}, {}, {}, {1.0, 2.0}),
               gs::InvalidArgument);
  // Off-diagonal shape mismatch.
  EXPECT_THROW(block_tridiag_solve({Matrix{{1.0}}, Matrix{{1.0}}},
                                   {Matrix(2, 1)}, {Matrix(1, 1)},
                                   {1.0, 1.0}),
               gs::InvalidArgument);
}

TEST(BlockTridiag, SingularPivotThrows) {
  EXPECT_THROW(
      block_tridiag_solve({Matrix{{0.0}}}, {}, {}, {1.0}),
      gs::NumericalError);
}

// A random diagonally dominant chain with level sizes cycling through
// 1..3: block row i is (lower[i], diag[i], upper[i]) with lower[0] empty.
struct Chain {
  std::vector<Matrix> lower, diag, upper;
  std::vector<Matrix> censored;  // per-level replacement diagonal
};

Chain random_chain(std::size_t levels, std::uint64_t seed) {
  gs::util::Rng rng(seed);
  auto size = [](std::size_t i) { return 1 + i % 3; };
  auto block = [&](std::size_t r, std::size_t c, double shift) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j)
        m(i, j) = rng.uniform() < 0.5 ? 0.0 : rng.uniform();
    for (std::size_t i = 0; i < r && i < c; ++i) m(i, i) += shift;
    return m;
  };
  Chain ch;
  for (std::size_t i = 0; i < levels; ++i) {
    ch.lower.push_back(i == 0 ? Matrix() : block(size(i), size(i - 1), 0.0));
    ch.diag.push_back(block(size(i), size(i), 6.0));
    ch.upper.push_back(block(size(i), size(i + 1), 0.0));
    ch.censored.push_back(block(size(i), size(i), 4.0));
  }
  return ch;
}

// The first n levels as explicit block lists, the last diagonal replaced.
Matrix dense_prefix(const Chain& ch, std::size_t n) {
  std::vector<Matrix> diag(ch.diag.begin(), ch.diag.begin() + n);
  diag.back() = ch.censored[n - 1];
  std::vector<Matrix> upper(ch.upper.begin(), ch.upper.begin() + n - 1);
  std::vector<Matrix> lower(ch.lower.begin() + 1, ch.lower.begin() + n);
  return assemble(diag, upper, lower);
}

void grow(BlockTridiagFactor& f, const Chain& ch, std::size_t levels) {
  while (f.levels() < levels) {
    const std::size_t i = f.levels();
    f.push(ch.lower[i], ch.diag[i], ch.upper[i]);
  }
}

Vector rhs(std::size_t n, std::uint64_t seed) {
  gs::util::Rng rng(seed);
  Vector b(n);
  for (auto& v : b) v = rng.uniform() * 2.0 - 1.0;
  return b;
}

TEST(BlockTridiagFactor, PrefixSolveIsBitwiseIndependentOfDepth) {
  const Chain ch = random_chain(40, 11);
  const std::size_t n = 17;
  BlockTridiagFactor exact, deep, shallow;
  grow(exact, ch, n);
  grow(deep, ch, 40);  // grown well past n
  grow(shallow, ch, 5);  // grown from below n, in steps
  grow(shallow, ch, 12);
  grow(shallow, ch, n);
  const auto cut = exact.truncate(n, ch.censored[n - 1]);
  const Vector b = rhs(cut.size(), 3);
  const Vector x = cut.solve(b);
  EXPECT_EQ(deep.truncate(n, ch.censored[n - 1]).solve(b), x);
  EXPECT_EQ(shallow.truncate(n, ch.censored[n - 1]).solve(b), x);
  // The second solve against the same cut matches a fresh cut too.
  EXPECT_EQ(deep.truncate(n, ch.censored[n - 1]).solve(x), cut.solve(x));
}

TEST(BlockTridiagFactor, TruncatedSolveMatchesDenseLu) {
  const Chain ch = random_chain(30, 5);
  BlockTridiagFactor f;
  grow(f, ch, 30);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                        std::size_t{30}}) {
    const auto cut = f.truncate(n, ch.censored[n - 1]);
    const Vector b = rhs(cut.size(), n);
    const Vector expect = gs::linalg::solve(dense_prefix(ch, n), b);
    EXPECT_LT(gs::linalg::max_abs_diff(cut.solve(b), expect), 1e-12)
        << "n = " << n;
  }
}

TEST(BlockTridiagFactor, SingularPivotThrowsAndLeavesThePrefixIntact) {
  Chain ch = random_chain(10, 9);
  // Make the eliminated pivot of level 6 exactly zero: with a zero lower
  // block entering it, D'_6 = D_6.
  ch.lower[6] = Matrix(ch.lower[6].rows(), ch.lower[6].cols());
  ch.diag[6] = Matrix(ch.diag[6].rows(), ch.diag[6].cols());
  BlockTridiagFactor f;
  grow(f, ch, 7);
  // Pushing row 7 eliminates the singular pivot of row 6.
  EXPECT_THROW(f.push(ch.lower[7], ch.diag[7], ch.upper[7]),
               gs::NumericalError);
  EXPECT_EQ(f.levels(), 7u);
  EXPECT_THROW(f.push(ch.lower[7], ch.diag[7], ch.upper[7]),
               gs::NumericalError);
  EXPECT_EQ(f.levels(), 7u);
  // Shorter systems (the censored level replaces the singular one) still
  // solve, bitwise as a factor that never saw the failure.
  BlockTridiagFactor clean;
  grow(clean, ch, 7);
  for (std::size_t n : {std::size_t{3}, std::size_t{7}}) {
    const auto cut = f.truncate(n, ch.censored[n - 1]);
    const Vector b = rhs(cut.size(), 21);
    const Vector x = cut.solve(b);
    EXPECT_EQ(x, clean.truncate(n, ch.censored[n - 1]).solve(b));
    const Vector expect = gs::linalg::solve(dense_prefix(ch, n), b);
    EXPECT_LT(gs::linalg::max_abs_diff(x, expect), 1e-12) << "n = " << n;
  }
  // A singular replacement pivot throws too.
  EXPECT_THROW(f.truncate(7, Matrix(ch.diag[6].rows(), ch.diag[6].rows())),
               gs::NumericalError);
}

TEST(BlockTridiagFactor, RejectsBadShapesAndDepths) {
  BlockTridiagFactor f;
  EXPECT_THROW(f.truncate(1, Matrix{{1.0}}), gs::InvalidArgument);
  // The first row takes no lower block.
  EXPECT_THROW(f.push(Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{1.0}}),
               gs::InvalidArgument);
  f.push(Matrix(), Matrix{{2.0}}, Matrix{{1.0, 0.0}});
  // Next row must be 2x2 to match the upper block's columns.
  EXPECT_THROW(f.push(Matrix{{1.0}}, Matrix{{1.0}}, Matrix()),
               gs::InvalidArgument);
  EXPECT_EQ(f.levels(), 1u);
  EXPECT_THROW(f.truncate(2, Matrix{{1.0}}), gs::InvalidArgument);
  EXPECT_THROW(f.truncate(1, Matrix(2, 2)), gs::InvalidArgument);
}

}  // namespace
