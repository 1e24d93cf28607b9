#include "linalg/spectral.hpp"

#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::linalg {

SpectralResult spectral_radius(const Matrix& a, double tol, int max_iter) {
  obs::count("linalg.spectral_radius.calls");
  GS_CHECK(a.is_square(), "spectral_radius needs a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      GS_CHECK(a(r, c) >= 0.0,
               "spectral_radius: matrix has a negative entry; power "
               "iteration only bounds non-negative matrices");

  SpectralResult out;
  if (n == 0) {
    out.converged = true;
    return out;
  }

  // Start from the all-ones direction, which has non-zero overlap with the
  // Perron vector of any non-negative matrix.
  Vector x(n, 1.0 / static_cast<double>(n));
  Vector y(n);  // reused by every step: the iteration allocates nothing
  double lambda = 0.0;
  for (int it = 1; it <= max_iter; ++it) {
    multiply_into(y, a, x);
    double norm = 0.0;
    for (double v : y) norm += v;  // entries stay non-negative
    out.iterations = it;
    if (norm == 0.0) {
      // x entered the nilpotent part; the dominant eigenvalue is 0.
      out.radius = 0.0;
      out.converged = true;
      return out;
    }
    for (double& v : y) v /= norm;
    if (std::fabs(norm - lambda) <= tol * std::max(1.0, std::fabs(norm)) &&
        max_abs_diff(x, y) <= tol) {
      out.radius = norm;
      out.converged = true;
      return out;
    }
    lambda = norm;
    std::swap(x, y);
  }
  out.radius = lambda;
  out.converged = false;
  return out;
}

}  // namespace gs::linalg
