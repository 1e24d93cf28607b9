#include "workload/figures.hpp"

#include "phase/builders.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"

namespace gs::workload {

std::vector<double> quantum_axis() {
  std::vector<double> xs;
  for (double q : {0.02, 0.035, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75}) xs.push_back(q);
  for (double q = 1.0; q <= 6.0 + 1e-9; q += 0.5) xs.push_back(q);
  return xs;
}

gang::SystemParams quantum_figure_system(double arrival_rate,
                                         double quantum_mean,
                                         int quantum_stages) {
  PaperKnobs knobs;
  knobs.arrival_rate = arrival_rate;
  knobs.quantum_mean = quantum_mean;
  knobs.quantum_stages = quantum_stages;
  return paper_system(knobs);
}

std::vector<double> service_rate_axis() {
  std::vector<double> xs;
  for (double mu = 2.0; mu <= 20.0 + 1e-9; mu += 1.0) xs.push_back(mu);
  return xs;
}

gang::SystemParams service_rate_figure_system(double mu, int quantum_stages) {
  PaperKnobs knobs;
  knobs.arrival_rate = 0.6;
  knobs.quantum_mean = 5.0;
  knobs.quantum_stages = quantum_stages;
  knobs.uniform_service_rate = mu;
  return paper_system(knobs);
}

std::vector<double> cycle_fraction_axis() {
  // Accumulated, not computed as k / 10: the printed fractions (and the
  // systems built from them) are those of the running sum.
  std::vector<double> xs;
  for (double fraction = 0.1; fraction <= 0.9 + 1e-9; fraction += 0.1)
    xs.push_back(fraction);
  return xs;
}

Figure5Point figure5_point(std::size_t favored, double fraction,
                           double total_quantum_budget, int quantum_stages,
                           const gang::GangSolveOptions& options) {
  const gang::SystemParams sys =
      figure5_system(favored, fraction, total_quantum_budget, quantum_stages);
  Figure5Point out;
  try {
    out.report = gang::GangSolver(sys, options).solve();
    out.path = Figure5Point::Path::kFixedPoint;
    out.mean_jobs = out.report.per_class[favored].mean_jobs;
    return out;
  } catch (const Error&) {
    // Some *other* class saturated (a large share starves it).
  }
  try {
    out.mean_jobs = gang::solve_class_heavy_traffic(sys, favored).mean_jobs;
    out.path = Figure5Point::Path::kHeavyTraffic;
  } catch (const Error&) {
    out.path = Figure5Point::Path::kUnstable;
  }
  return out;
}

std::vector<AblationCase> ablation_fixed_point_cases() {
  std::vector<AblationCase> cases;
  for (double rho : {0.4, 0.7, 0.9}) {
    PaperKnobs knobs;
    knobs.arrival_rate = rho;
    gang::GangSolveOptions heavy;
    heavy.fixed_point = false;
    cases.push_back({rho, "heavy-traffic only", paper_system(knobs), heavy});
    cases.push_back({rho, "fixed point (fitted)", paper_system(knobs), {}});
  }

  // The exact representation's order grows with the truncation depth, so
  // the exact-mode comparison runs on a small two-class system.
  const gang::ClassParams c0{phase::exponential(0.3), phase::exponential(1.0),
                             phase::erlang(2, 1.0), phase::exponential(100.0),
                             2, "small"};
  const gang::ClassParams c1{phase::exponential(0.3), phase::exponential(2.0),
                             phase::erlang(2, 1.0), phase::exponential(100.0),
                             4, "big"};
  const gang::SystemParams two_class(4, {c0, c1});
  gang::GangSolveOptions exact;
  exact.eff_mode = gang::EffQuantumMode::kExact;
  cases.push_back({0.3, "2-class exact quanta", two_class, exact, 1});
  cases.push_back({0.3, "2-class fitted quanta", two_class, {}, 1});

  for (int order : {2, 4, 8, 32}) {
    PaperKnobs knobs;
    knobs.arrival_rate = 0.7;
    gang::GangSolveOptions o;
    o.fit_max_order = order;
    cases.push_back({0.7, "fit order cap " + std::to_string(order),
                     paper_system(knobs), o});
  }
  return cases;
}

}  // namespace gs::workload
