// BatchMatrix contract tests: lane-major round trips, the packed batched
// GEMM's bitwise equality with the scalar multiplies lane by lane, and
// the guarantee that masked-out lanes keep their bits.
#include "linalg/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace gs::linalg;

// Deterministic value stream (no libc rand; same bits on every platform).
class ValueStream {
 public:
  explicit ValueStream(std::uint64_t seed) : state_(seed) {}
  double next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    // Map the top bits into [-1, 1); plenty for kernel tests.
    return static_cast<double>(static_cast<std::int64_t>(state_ >> 11)) /
           static_cast<double>(1ll << 52);
  }

 private:
  std::uint64_t state_;
};

Matrix random_matrix(std::size_t rows, std::size_t cols, ValueStream& vs,
                     double zero_fraction = 0.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = vs.next();
      m(i, j) = (zero_fraction > 0.0 && v < -1.0 + 2.0 * zero_fraction)
                    ? 0.0
                    : v;
    }
  return m;
}

BatchMatrix pack(const std::vector<Matrix>& lanes) {
  BatchMatrix b(lanes[0].rows(), lanes[0].cols(), lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) b.load_lane(l, lanes[l]);
  return b;
}

TEST(BatchMatrix, LoadStoreRoundTripIsBitwise) {
  ValueStream vs(1);
  std::vector<Matrix> lanes;
  for (std::size_t l = 0; l < 4; ++l)
    lanes.push_back(random_matrix(3, 5, vs));
  const BatchMatrix b = pack(lanes);
  Matrix back;
  for (std::size_t l = 0; l < 4; ++l) {
    b.store_lane(l, back);
    EXPECT_EQ(max_abs_diff(back, lanes[l]), 0.0) << "lane " << l;
  }
}

TEST(BatchMatrix, EnsureKeepsBitsOnShapeMatchAndZerosOnReshape) {
  ValueStream vs(2);
  BatchMatrix b = pack({random_matrix(4, 4, vs), random_matrix(4, 4, vs)});
  const double pinned = b(2, 3, 1);
  b.ensure(4, 4, 2);  // no-op
  EXPECT_EQ(b(2, 3, 1), pinned);
  b.ensure(5, 4, 2);  // reshape zero-fills every lane
  Matrix lane;
  for (std::size_t l = 0; l < 2; ++l) {
    b.store_lane(l, lane);
    EXPECT_EQ(lane.max_abs(), 0.0);
  }
}

TEST(BatchMatrix, PackedGemmMatchesScalarPerLane) {
  ValueStream vs(21);
  // Mixed per-lane sparsity: the pack's drop rule must only drop slices
  // that are zero in every active lane, keeping the per-lane bits.
  std::vector<Matrix> as, bs;
  for (std::size_t l = 0; l < 8; ++l) {
    as.push_back(random_matrix(13, 9, vs, /*zero_fraction=*/0.5));
    bs.push_back(random_matrix(9, 11, vs, /*zero_fraction=*/0.3));
  }
  const BatchMatrix a = pack(as), b = pack(bs);
  BatchGemmPackA pa;
  BatchGemmPackB pb;
  pa.pack(a, LaneMask(8));
  pb.pack(b);
  BatchMatrix out;
  batch_gemm_packed_into(out, pa, pb, LaneMask(8));

  Matrix got, want;
  GemmPackA ga;
  GemmPackB gb;
  for (std::size_t l = 0; l < 8; ++l) {
    out.store_lane(l, got);
    multiply_into(want, as[l], bs[l]);
    EXPECT_EQ(max_abs_diff(got, want), 0.0) << "vs multiply, lane " << l;
    ga.pack(as[l]);
    gb.pack(bs[l]);
    gemm_packed_into(want, ga, gb);
    EXPECT_EQ(max_abs_diff(got, want), 0.0) << "vs scalar gemm, lane " << l;
  }
}

TEST(BatchMatrix, PackedGemmMaskedLanesKeepTheirBits) {
  ValueStream vs(22);
  const BatchMatrix a = pack({random_matrix(6, 6, vs), random_matrix(6, 6, vs)});
  const BatchMatrix b = pack({random_matrix(6, 6, vs), random_matrix(6, 6, vs)});
  BatchMatrix out = pack({random_matrix(6, 6, vs), random_matrix(6, 6, vs)});
  Matrix frozen;
  out.store_lane(1, frozen);
  LaneMask only0(2);
  only0.set(1, false);
  BatchGemmPackA pa;
  BatchGemmPackB pb;
  pa.pack(a, only0);
  pb.pack(b);
  batch_gemm_packed_into(out, pa, pb, only0);
  Matrix after;
  out.store_lane(1, after);
  EXPECT_EQ(max_abs_diff(after, frozen), 0.0);
}

}  // namespace
