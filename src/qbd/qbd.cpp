#include "qbd/qbd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/gth.hpp"
#include "markov/scc.hpp"
#include "util/error.hpp"

namespace gs::qbd {

namespace {

bool same_shape(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols();
}

bool same_shapes(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_shape(a[i], b[i])) return false;
  return true;
}

}  // namespace

QbdProcess::QbdProcess(QbdBlocks blocks) : blocks_(std::move(blocks)) {
  validate();
  for (const Matrix& m : blocks_.diag) boundary_size_ += m.rows();
}

void QbdProcess::revalue(const QbdBlocks& blocks) {
  GS_CHECK(same_shapes(blocks.diag, blocks_.diag) &&
               same_shapes(blocks.up, blocks_.up) &&
               same_shapes(blocks.down, blocks_.down) &&
               same_shape(blocks.b11, blocks_.b11) &&
               same_shape(blocks.a0, blocks_.a0) &&
               same_shape(blocks.a1, blocks_.a1) &&
               same_shape(blocks.a2, blocks_.a2),
           "QbdProcess::revalue: block shapes differ from the built "
           "process; rebuild instead");
  // Copy-assignment reuses each block's existing allocation.
  blocks_ = blocks;
  validate();
}

void QbdProcess::validate() const {
  const std::size_t d = blocks_.a1.rows();
  GS_CHECK(d > 0, "QBD repeating blocks must be non-empty");
  GS_CHECK(blocks_.a0.rows() == d && blocks_.a0.cols() == d &&
               blocks_.a1.cols() == d && blocks_.a2.rows() == d &&
               blocks_.a2.cols() == d,
           "QBD repeating blocks A0/A1/A2 must all be d x d");
  GS_CHECK(blocks_.b11.rows() == d && blocks_.b11.cols() == d,
           "QBD level-b block B11 must be d x d");

  const std::size_t b = blocks_.diag.size();
  GS_CHECK(blocks_.up.size() == b && blocks_.down.size() == b,
           "QBD boundary needs one diagonal, up and down block per "
           "boundary-interior level");
  // n_i per level; level b has the repeating dimension.
  auto dim = [&](std::size_t i) {
    return i < b ? blocks_.diag[i].rows() : d;
  };
  for (std::size_t i = 0; i < b; ++i) {
    GS_CHECK(blocks_.diag[i].rows() > 0 && blocks_.diag[i].is_square(),
             "QBD boundary diagonal blocks must be square and non-empty");
    GS_CHECK(blocks_.up[i].rows() == dim(i) &&
                 blocks_.up[i].cols() == dim(i + 1),
             "QBD boundary up block i must be n_i x n_{i+1}");
    GS_CHECK(blocks_.down[i].rows() == dim(i + 1) &&
                 blocks_.down[i].cols() == dim(i),
             "QBD boundary down block i must be n_{i+1} x n_i");
  }

  // Row-sum validation (generator rows must vanish).
  double scale = std::max({blocks_.b11.max_abs(), blocks_.a0.max_abs(),
                           blocks_.a1.max_abs(), blocks_.a2.max_abs(), 1.0});
  for (const Matrix& m : blocks_.diag) scale = std::max(scale, m.max_abs());
  const double tol = 1e-8 * scale;

  // Row i of the level's row sums, accumulated block by block.
  auto row_sum = [](const Matrix& m, std::size_t r) {
    const double* row = m.data() + r * m.cols();
    double acc = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) acc += row[c];
    return acc;
  };
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t r = 0; r < dim(i); ++r) {
      double acc = row_sum(blocks_.diag[i], r) + row_sum(blocks_.up[i], r);
      if (i > 0) acc += row_sum(blocks_.down[i - 1], r);
      GS_CHECK(std::fabs(acc) <= tol, "QBD boundary row sums must vanish");
    }
  for (std::size_t r = 0; r < d; ++r) {
    double acc = row_sum(blocks_.b11, r) + row_sum(blocks_.a0, r);
    if (b > 0) acc += row_sum(blocks_.down[b - 1], r);
    GS_CHECK(std::fabs(acc) <= tol, "QBD level-b row sums must vanish");
  }
  for (std::size_t r = 0; r < d; ++r)
    GS_CHECK(std::fabs(row_sum(blocks_.a0, r) + row_sum(blocks_.a1, r) +
                       row_sum(blocks_.a2, r)) <= tol,
             "QBD repeating row sums must vanish");

  // Off-diagonal non-negativity of every block (the diagonal lives in the
  // D_i, B11 and A1 only).
  auto check_nonneg = [&](const Matrix& m, bool has_diag, const char* name) {
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (has_diag && i == j) continue;
        GS_CHECK(m(i, j) >= -tol,
                 std::string("QBD block ") + name +
                     " has a negative off-diagonal entry");
      }
  };
  for (std::size_t i = 0; i < b; ++i) {
    check_nonneg(blocks_.diag[i], true, "D_i");
    check_nonneg(blocks_.up[i], false, "U_i");
    check_nonneg(blocks_.down[i], false, "L_i");
  }
  check_nonneg(blocks_.b11, true, "B11");
  check_nonneg(blocks_.a0, false, "A0");
  check_nonneg(blocks_.a1, true, "A1");
  check_nonneg(blocks_.a2, false, "A2");
}

QbdProcess::Drift QbdProcess::drift() const {
  Drift out;
  const Matrix a = blocks_.a0 + blocks_.a1 + blocks_.a2;
  // A is itself a generator (rows sum to zero); its stationary vector y is
  // the phase process ignoring the level.
  out.y = linalg::gth_stationary(a);
  out.up_drift = linalg::dot(out.y, blocks_.a0.row_sums());
  out.down_drift = linalg::dot(out.y, blocks_.a2.row_sums());
  out.stable = out.up_drift < out.down_drift;
  return out;
}

Matrix QbdProcess::corner(std::size_t repeating_levels) const {
  const std::size_t b = boundary_levels();
  const std::size_t D = boundary_size();
  const std::size_t d = repeating_size();
  const std::size_t n = D + d * (1 + repeating_levels);
  Matrix q(n, n);
  std::size_t off = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const std::size_t ni = blocks_.diag[i].rows();
    q.insert_block(off, off, blocks_.diag[i]);
    q.insert_block(off, off + ni, blocks_.up[i]);
    q.insert_block(off + ni, off, blocks_.down[i]);
    off += ni;
  }
  q.insert_block(D, D, blocks_.b11);
  for (std::size_t k = 0; k <= repeating_levels; ++k) {
    const std::size_t r0 = D + k * d;
    if (k > 0) {
      q.insert_block(r0, r0, blocks_.a1);
      q.insert_block(r0, r0 - d, blocks_.a2);
    }
    if (k < repeating_levels) q.insert_block(r0, r0 + d, blocks_.a0);
  }
  return q;
}

bool QbdProcess::is_irreducible() const {
  // Section 4.4: the boundary plus the first repeating level strongly
  // connected implies irreducibility of the whole process, because levels
  // repeat identically from there on. The top corner's last level lacks
  // its up-block, which could only *remove* connectivity, so we include
  // two repeating levels and test the sub-corner reachability on the first.
  const Matrix q = corner(2);
  const auto comp = markov::strongly_connected_components(q);
  const std::size_t check = boundary_size() + 2 * repeating_size();
  for (std::size_t i = 0; i < check; ++i) {
    if (comp[i] != comp[0]) return false;
  }
  return true;
}

}  // namespace gs::qbd
