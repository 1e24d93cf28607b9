#include "linalg/block_tridiag.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace gs::linalg {

namespace {

void validate(const std::vector<Matrix>& diag,
              const std::vector<Matrix>& upper,
              const std::vector<Matrix>& lower, const Vector& b) {
  GS_CHECK(!diag.empty(), "block tridiagonal system needs >= 1 block");
  GS_CHECK(upper.size() + 1 == diag.size() && lower.size() + 1 == diag.size(),
           "block tridiagonal: need exactly n-1 off-diagonal blocks");
  std::size_t total = 0;
  for (std::size_t i = 0; i < diag.size(); ++i) {
    GS_CHECK(diag[i].is_square(), "diagonal blocks must be square");
    total += diag[i].rows();
    if (i + 1 < diag.size()) {
      GS_CHECK(upper[i].rows() == diag[i].rows() &&
                   upper[i].cols() == diag[i + 1].rows(),
               "upper block shape mismatch");
      GS_CHECK(lower[i].rows() == diag[i + 1].rows() &&
                   lower[i].cols() == diag[i].rows(),
               "lower block shape mismatch");
    }
  }
  GS_CHECK(b.size() == total, "rhs length mismatch");
}

// Compress a block when at least half its entries are zero — the arrival
// and completion off-diagonals of the serving-state chain are O(rows)
// dense. A non-finite entry disables compression for the block: the
// sparse kernels' bitwise-identity guarantee (see sparse.hpp) requires
// finite operands.
std::optional<SparseMatrix> try_compress(const Matrix& m) {
  std::size_t nz = 0;
  const double* p = m.data();
  const std::size_t total = m.rows() * m.cols();
  for (std::size_t i = 0; i < total; ++i) {
    if (!std::isfinite(p[i])) return std::nullopt;
    if (p[i] != 0.0) ++nz;
  }
  if (2 * nz > total) return std::nullopt;
  return SparseMatrix::from_dense(m);
}

}  // namespace

void BlockTridiagFactor::OffDiag::assign(const Matrix& m) {
  csr = try_compress(m);
  if (!csr) dense = m;
}

void BlockTridiagFactor::OffDiag::multiply(Vector& out,
                                           const Vector& x) const {
  if (csr) {
    multiply_into(out, *csr, x);
  } else {
    out = dense * x;
  }
}

void BlockTridiagFactor::push(const Matrix& lower, const Matrix& diag,
                              const Matrix& upper) {
  GS_CHECK(diag.is_square(), "diagonal blocks must be square");
  GS_CHECK(upper.empty() || upper.rows() == diag.rows(),
           "upper block shape mismatch");
  // Everything is computed into locals first: a singular pivot throws
  // before the factor changes.
  Row row;
  row.dim = diag.rows();
  Matrix dprime = diag;
  std::optional<Lu> pivot;
  if (rows_.empty()) {
    GS_CHECK(lower.empty(), "the first block row has no lower block");
  } else {
    const Row& prev = rows_.back();
    GS_CHECK(pending_upper_.rows() == prev.dim &&
                 pending_upper_.cols() == diag.rows(),
             "upper block shape mismatch");
    GS_CHECK(lower.rows() == diag.rows() && lower.cols() == prev.dim,
             "lower block shape mismatch");
    row.offset = prev.offset + prev.dim;
    // D'_i = D_i - L_{i-1} D'^{-1}_{i-1} U_{i-1}.
    pivot.emplace(pending_);
    const Matrix dinv_u = pivot->solve(pending_upper_);
    row.lower.assign(lower);
    if (row.lower.csr) {
      multiply_into(row.schur, *row.lower.csr, dinv_u);
    } else {
      multiply_into(row.schur, lower, dinv_u);
    }
    dprime -= row.schur;
  }
  row.upper.assign(upper);
  if (pivot) pivots_.push_back(std::move(*pivot));
  rows_.push_back(std::move(row));
  pending_ = std::move(dprime);
  pending_upper_ = upper;
}

BlockTridiagFactor::Truncated BlockTridiagFactor::truncate(
    std::size_t n, const Matrix& last_diag) const {
  GS_CHECK(n >= 1 && n <= rows_.size(),
           "truncation depth exceeds the factored prefix");
  const Row& row = rows_[n - 1];
  GS_CHECK(last_diag.rows() == row.dim && last_diag.cols() == row.dim,
           "replacement diagonal block shape mismatch");
  if (n == 1) return Truncated(*this, n, Lu(last_diag));
  Matrix dprime = last_diag;
  dprime -= row.schur;
  return Truncated(*this, n, Lu(dprime));
}

std::size_t BlockTridiagFactor::Truncated::size() const {
  const Row& last = f_->rows_[n_ - 1];
  return last.offset + last.dim;
}

Vector BlockTridiagFactor::Truncated::solve(const Vector& b) const {
  GS_CHECK(b.size() == size(), "rhs length mismatch");
  const std::vector<Row>& rows = f_->rows_;
  const std::vector<Lu>& pivots = f_->pivots_;
  Vector x = b;
  Vector seg, t;
  auto load = [&](std::size_t i) {
    const auto first = x.begin() + static_cast<std::ptrdiff_t>(rows[i].offset);
    seg.assign(first, first + static_cast<std::ptrdiff_t>(rows[i].dim));
  };
  auto store = [&](std::size_t i, const Vector& v) {
    std::copy(v.begin(), v.end(),
              x.begin() + static_cast<std::ptrdiff_t>(rows[i].offset));
  };

  // Forward sweep, in place: y_{i+1} = b_{i+1} - L_i D'^{-1}_i y_i.
  for (std::size_t i = 0; i + 1 < n_; ++i) {
    load(i);
    const Vector dinv_y = pivots[i].solve(seg);
    rows[i + 1].lower.multiply(t, dinv_y);
    double* y = x.data() + rows[i + 1].offset;
    for (std::size_t r = 0; r < t.size(); ++r) y[r] -= t[r];
  }

  // Back substitution: x_{n-1} = D'^{-1}_{n-1} y_{n-1};
  // x_i = D'^{-1}_i (y_i - U_i x_{i+1}).
  load(n_ - 1);
  store(n_ - 1, last_.solve(seg));
  for (std::size_t i = n_ - 1; i-- > 0;) {
    load(i + 1);
    rows[i].upper.multiply(t, seg);
    load(i);
    for (std::size_t r = 0; r < seg.size(); ++r) seg[r] -= t[r];
    store(i, pivots[i].solve(seg));
  }
  return x;
}

Vector block_tridiag_solve(const std::vector<Matrix>& diag,
                           const std::vector<Matrix>& upper,
                           const std::vector<Matrix>& lower,
                           const Vector& b) {
  validate(diag, upper, lower, b);
  const std::size_t n = diag.size();
  const Matrix none;
  BlockTridiagFactor f;
  for (std::size_t i = 0; i < n; ++i)
    f.push(i == 0 ? none : lower[i - 1], diag[i],
           i + 1 < n ? upper[i] : none);
  return f.truncate(n, diag[n - 1]).solve(b);
}

}  // namespace gs::linalg
