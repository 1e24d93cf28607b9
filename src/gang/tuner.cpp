#include "gang/tuner.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <optional>

#include "util/error.hpp"
#include "util/log.hpp"

namespace gs::gang {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

SystemParams with_quanta(const SystemParams& base,
                         const std::vector<double>& means) {
  std::vector<ClassParams> cls = base.classes();
  for (std::size_t p = 0; p < cls.size(); ++p) {
    const double old_mean = cls[p].quantum.mean();
    cls[p].quantum = cls[p].quantum.scaled(means[p] / old_mean);
  }
  return SystemParams(base.processors(), std::move(cls));
}

struct Evaluator {
  Evaluator(const SystemParams& base, const TuneObjective& objective,
            const TuneOptions& options)
      : base(base), objective(objective), options(options) {}

  const SystemParams& base;
  const TuneObjective& objective;
  const TuneOptions& options;
  int evaluations = 0;
  std::optional<SolveReport> best_report;
  double best_value = kInfeasible;
  std::vector<double> best_means;

  double operator()(const std::vector<double>& means) {
    ++evaluations;
    try {
      const SystemParams sys = with_quanta(base, means);
      const SolveReport report = GangSolver(sys, options.solver).solve();
      const double value = tune_objective_value(objective, report, sys);
      if (value < best_value) {
        best_value = value;
        best_report = report;
        best_means = means;
      }
      return value;
    } catch (const Error&) {
      return kInfeasible;  // unstable at these quanta
    }
  }
};

/// 1-D minimization of f over [lo, hi] (log-spaced coarse scan to bracket
/// the valley, then golden section). Returns the best x found; f may be
/// infinite on parts of the range.
double minimize_1d(const std::function<double(double)>& f, double lo,
                   double hi, int bracket_points, double tol) {
  GS_CHECK(lo > 0.0 && hi > lo, "invalid 1-D search range");
  // Coarse scan.
  std::vector<double> xs, ys;
  const double ratio = std::pow(hi / lo, 1.0 / (bracket_points - 1));
  double x = lo;
  std::size_t best = 0;
  for (int i = 0; i < bracket_points; ++i, x *= ratio) {
    xs.push_back(x);
    ys.push_back(f(x));
    if (ys.back() < ys[best]) best = ys.size() - 1;
  }
  if (std::isinf(ys[best])) return xs[best];  // nothing feasible

  double a = best > 0 ? xs[best - 1] : xs[best];
  double b = best + 1 < xs.size() ? xs[best + 1] : xs[best];
  if (a >= b) return xs[best];

  // Golden section on [a, b].
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double x1 = b - phi * (b - a);
  double x2 = a + phi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  while ((b - a) > tol * std::max(1.0, b)) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = f(x2);
    }
  }
  return f1 <= f2 ? x1 : x2;
}

}  // namespace

double tune_objective_value(const TuneObjective& objective,
                            const SolveReport& report,
                            const SystemParams& params) {
  switch (objective.kind) {
    case TuneObjective::Kind::kTotalMeanJobs:
      return report.total_mean_jobs();
    case TuneObjective::Kind::kWeightedResponse: {
      GS_CHECK(objective.weights.empty() ||
                   objective.weights.size() == params.num_classes(),
               "tuning weights must match the class count");
      double value = 0.0;
      for (std::size_t p = 0; p < report.per_class.size(); ++p) {
        const double w =
            objective.weights.empty() ? 1.0 : objective.weights[p];
        value += w * report.per_class[p].response_time;
      }
      return value;
    }
  }
  GS_ASSERT(false);
  return 0.0;
}

TuneResult tune_common_quantum(const SystemParams& params,
                               const TuneObjective& objective,
                               const TuneOptions& options) {
  Evaluator eval{params, objective, options};
  const std::size_t L = params.num_classes();
  auto f = [&](double q) {
    return eval(std::vector<double>(L, q));
  };
  const double q_star = minimize_1d(f, options.quantum_min,
                                    options.quantum_max,
                                    options.bracket_points, options.tol);
  // Make sure the winner itself was evaluated (golden section ends between
  // probes).
  f(q_star);
  if (!eval.best_report.has_value()) {
    throw NumericalError(
        "no stable quantum length in the tuning range [" +
        std::to_string(options.quantum_min) + ", " +
        std::to_string(options.quantum_max) + "]");
  }
  TuneResult out;
  out.quantum_means = eval.best_means;
  out.objective = eval.best_value;
  out.evaluations = eval.evaluations;
  out.report = *eval.best_report;
  out.improved = true;
  return out;
}

TuneResult tune_per_class_quanta(const SystemParams& params,
                                 const TuneObjective& objective,
                                 const TuneOptions& options) {
  Evaluator eval{params, objective, options};
  const std::size_t L = params.num_classes();
  std::vector<double> means;
  means.reserve(L);
  for (std::size_t p = 0; p < L; ++p)
    means.push_back(params.cls(p).quantum.mean());

  const double start_value = eval(means);
  double current = start_value;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const double before = current;
    for (std::size_t p = 0; p < L; ++p) {
      auto f = [&](double q) {
        std::vector<double> candidate = means;
        candidate[p] = q;
        return eval(candidate);
      };
      const double q_star =
          minimize_1d(f, options.quantum_min, options.quantum_max,
                      options.bracket_points, options.tol);
      const double value = f(q_star);
      if (value < current) {
        means[p] = q_star;
        current = value;
      }
    }
    log::debug("tuner sweep ", sweep, ": objective ", current);
    if (before - current <= options.tol * std::max(1.0, before)) break;
  }
  if (!eval.best_report.has_value()) {
    throw NumericalError(
        "no stable per-class quantum assignment found in the tuning range");
  }
  TuneResult out;
  out.quantum_means = eval.best_means;
  out.objective = eval.best_value;
  out.evaluations = eval.evaluations;
  out.report = *eval.best_report;
  out.improved =
      std::isinf(start_value) || eval.best_value < start_value - 1e-12;
  return out;
}

}  // namespace gs::gang
