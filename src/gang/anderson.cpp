#include "gang/anderson.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace gs::gang {

namespace {

// Coordinates per class: atom, m1 / E[Q], m2 / E[Q^2].
constexpr std::size_t kPerClass = 3;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

AndersonAccelerator::AndersonAccelerator(const SystemParams& params) {
  for (const ClassParams& c : params.classes()) {
    q1_.push_back(c.quantum.mean());
    q2_.push_back(c.quantum.moment(2));
  }
}

void AndersonAccelerator::next_slices(
    const std::vector<EffectiveQuantum>& image, int fit_max_order,
    std::vector<PhaseType>& slices) {
  const std::size_t L = q1_.size();
  std::vector<double> g(kPerClass * L);
  for (std::size_t q = 0; q < L; ++q) {
    g[kPerClass * q] = image[q].atom;
    g[kPerClass * q + 1] = image[q].m1 / q1_[q];
    g[kPerClass * q + 2] = image[q].m2 / q2_[q];
  }
  std::vector<double> x;
  if (extrapolate(g, x)) {
    obs::count("gang.solve.accel.steps");
    for (std::size_t q = 0; q < L; ++q) {
      EffectiveQuantum eq;
      eq.atom = x[kPerClass * q];
      eq.m1 = x[kPerClass * q + 1] * q1_[q];
      eq.m2 = x[kPerClass * q + 2] * q2_[q];
      slices[q] = eq.fitted(fit_max_order);
    }
    x_ = std::move(x);
    return;
  }
  for (std::size_t q = 0; q < L; ++q)
    slices[q] = image[q].fitted(fit_max_order);
  x_ = std::move(g);
}

// Record the new residual and, with at least one residual difference in
// the window, write the type-II Anderson iterate
//   x = g_k - dG gamma,  gamma = argmin || f_k - dF gamma ||_2
// (dF, dG: consecutive differences of the stored residuals and images)
// into `x`. Returns false when the plain image should be taken instead;
// an infeasible extrapolation also clears the history.
bool AndersonAccelerator::extrapolate(const std::vector<double>& g,
                                      std::vector<double>& x) {
  if (x_.empty()) return false;  // first image: nothing to mix yet
  std::vector<double> f(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) f[i] = g[i] - x_[i];
  g_hist_.push_back(g);
  f_hist_.push_back(std::move(f));
  if (g_hist_.size() > kWindow + 1) {
    g_hist_.pop_front();
    f_hist_.pop_front();
  }
  const std::vector<double>& fk = f_hist_.back();

  // Least squares by modified Gram-Schmidt on the difference columns,
  // oldest first. A column numerically dependent on the ones before it
  // drops the oldest history entry and the factorization restarts.
  std::vector<double> gamma;
  while (g_hist_.size() >= 2) {
    const std::size_t m = g_hist_.size() - 1;
    std::vector<std::vector<double>> qcols(m);
    std::vector<double> r(m * m, 0.0);
    bool dependent = false;
    for (std::size_t j = 0; j < m && !dependent; ++j) {
      std::vector<double>& v = qcols[j];
      v.resize(g.size());
      for (std::size_t i = 0; i < g.size(); ++i)
        v[i] = f_hist_[j + 1][i] - f_hist_[j][i];
      const double norm0 = std::sqrt(dot(v, v));
      for (std::size_t k = 0; k < j; ++k) {
        const double rkj = dot(qcols[k], v);
        r[k * m + j] = rkj;
        for (std::size_t i = 0; i < v.size(); ++i) v[i] -= rkj * qcols[k][i];
      }
      const double rjj = std::sqrt(dot(v, v));
      if (!(rjj > 1e-10 * norm0)) {
        dependent = true;
        break;
      }
      r[j * m + j] = rjj;
      for (double& vi : v) vi /= rjj;
    }
    if (dependent) {
      g_hist_.pop_front();
      f_hist_.pop_front();
      continue;
    }
    gamma.assign(m, 0.0);
    for (std::size_t j = m; j-- > 0;) {
      double s = dot(qcols[j], fk);
      for (std::size_t k = j + 1; k < m; ++k) s -= r[j * m + k] * gamma[k];
      gamma[j] = s / r[j * m + j];
    }
    break;
  }
  if (gamma.empty()) return false;  // a single residual: plain step

  x = g;
  for (std::size_t j = 0; j < gamma.size(); ++j)
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] -= gamma[j] * (g_hist_[j + 1][i] - g_hist_[j][i]);
  if (feasible(x)) return true;
  obs::count("gang.solve.accel.rejected");
  g_hist_.clear();
  f_hist_.clear();
  return false;
}

bool AndersonAccelerator::feasible(const std::vector<double>& x) const {
  for (std::size_t q = 0; q < q1_.size(); ++q) {
    const double atom = x[kPerClass * q];
    const double m1 = x[kPerClass * q + 1];
    const double m2 = x[kPerClass * q + 2];
    // Written so a NaN fails every test.
    if (!(atom >= 0.0 && atom < 1.0 - 1e-9)) return false;
    if (!(m1 > 0.0 && m2 > 0.0)) return false;
    if (!(m1 <= 1.0)) return false;  // mean above the full quantum's
  }
  return true;
}

}  // namespace gs::gang
