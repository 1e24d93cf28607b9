#include "phase/uniformization.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace gs::phase {

using linalg::Matrix;
using linalg::Vector;

namespace {

std::string qt_too_large(double qt) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "exp_action: q*t = %.6g exceeds %.6g",
                qt, kExpActionMaxQt);
  return buf;
}

}  // namespace

Vector exp_action(const Vector& v, const Matrix& m, double t,
                  double tail_eps) {
  GS_CHECK(m.is_square() && v.size() == m.rows(),
           "exp_action shape mismatch");
  GS_CHECK(t >= 0.0, "exp_action needs t >= 0");
  GS_CHECK(std::isfinite(t), "exp_action needs a finite t");
  const std::size_t n = m.rows();
  if (t == 0.0 || n == 0) return v;

  double q = 0.0;
  for (std::size_t i = 0; i < n; ++i) q = std::max(q, -m(i, i));
  if (q == 0.0) return v;  // M == 0
  q *= 1.0 + 1e-12;        // guard against P picking up a negative diagonal
  const double qt = q * t;
  GS_CHECK(qt <= kExpActionMaxQt, qt_too_large(qt));

  // P = M/q + I.
  Matrix p = m;
  p *= 1.0 / q;
  for (std::size_t i = 0; i < n; ++i) p(i, i) += 1.0;

  // Accumulate sum_k w_k * (v P^k) with w_k the Poisson(qt) pmf, computed
  // iteratively; scale to avoid underflow of e^{-qt} for large qt.
  Vector term = v;          // v P^k
  Vector next(n, 0.0);      // double buffer: no allocation per term
  Vector acc(n, 0.0);
  double log_w = -qt;       // log of Poisson weight at k = 0
  double cum = 0.0;         // accumulated Poisson mass
  // For large qt start accumulating only near the mode; terms far below
  // the mode carry negligible weight but we keep the simple forward loop —
  // weights underflow harmlessly to 0 via exp().
  const auto k_max =
      static_cast<std::int64_t>(qt + 10.0 * std::sqrt(qt + 1.0) + 50.0);
  for (std::int64_t k = 0; k <= k_max; ++k) {
    const double w = std::exp(log_w);
    if (w > 0.0) {
      for (std::size_t i = 0; i < n; ++i) acc[i] += w * term[i];
      cum += w;
      if (1.0 - cum <= tail_eps) break;
    }
    linalg::multiply_left_into(next, term, p);
    std::swap(term, next);
    log_w += std::log(qt) - std::log1p(static_cast<double>(k));
  }
  return acc;
}

Matrix exp_dense(const Matrix& m, double t, double tail_eps) {
  const std::size_t n = m.rows();
  Matrix out(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    Vector unit(n, 0.0);
    unit[r] = 1.0;
    Vector row = exp_action(unit, m, t, tail_eps);
    for (std::size_t c = 0; c < n; ++c) out(r, c) = row[c];
  }
  return out;
}

}  // namespace gs::phase
