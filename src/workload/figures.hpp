// The points of the reproduction's figures and of the fixed-point
// ablation: each figure's x-axis and the system (and solver options) at
// every x. The bench programs that print the tables and the reproduction
// golden (tools/repro_golden) both read them from here, so the golden
// pins exactly the numbers the benches print.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gang/params.hpp"
#include "gang/solver.hpp"

namespace gs::workload {

/// Per-class arrival rate of Figure 2 (rho = 0.4) and Figure 3 (rho = 0.9).
inline constexpr double kFigure2ArrivalRate = 0.4;
inline constexpr double kFigure3ArrivalRate = 0.9;

/// The quantum-length x-axis of Figures 2 and 3: (0, 6], sampled finely
/// near zero where the overhead-dominated knee lives.
std::vector<double> quantum_axis();

/// Figures 2 and 3 at one x: the Section 5 system with every class's
/// quantum mean set to `quantum_mean`.
gang::SystemParams quantum_figure_system(double arrival_rate,
                                         double quantum_mean,
                                         int quantum_stages = 2);

/// Figure 4's x-axis: the common service rate mu = 2, 3, ..., 20.
std::vector<double> service_rate_axis();

/// Figure 4 at one x: lambda_p = 0.6, quantum mean 5, every class served
/// at rate `mu`.
gang::SystemParams service_rate_figure_system(double mu,
                                              int quantum_stages = 2);

/// Figure 5's x-axis: class p's share of the cycle, 0.1, 0.2, ..., 0.9.
std::vector<double> cycle_fraction_axis();

/// One Figure 5 cell: the favored class's N_p at one cycle fraction.
struct Figure5Point {
  enum class Path {
    kFixedPoint,    ///< every class stable: the full fixed point
    kHeavyTraffic,  ///< another class saturated: the favored class's
                    ///< heavy-traffic solve, exact in that regime
    kUnstable,      ///< the favored class itself is unstable
  };
  Path path = Path::kUnstable;
  /// The favored class's mean jobs (unset on kUnstable).
  double mean_jobs = 0.0;
  /// The fixed point's report (kFixedPoint only).
  gang::SolveReport report;
};

/// Solve Figure 5 at (favored, fraction): the full fixed point when it
/// is stable, else the favored class's heavy-traffic solve.
Figure5Point figure5_point(std::size_t favored, double fraction,
                           double total_quantum_budget, int quantum_stages,
                           const gang::GangSolveOptions& options);

/// One row of the fixed-point ablation (bench/ablation_fixed_point).
struct AblationCase {
  double x = 0.0;           ///< the row's load label
  std::string variant;      ///< the row's variant label
  gang::SystemParams system;
  gang::GangSolveOptions options;
  std::size_t second_class = 3;  ///< the class shown next to class 0
};

/// The ablation's rows in table order: heavy-traffic only versus the
/// fixed point at rho = 0.4, 0.7, 0.9; exact versus fitted effective
/// quanta on a small two-class system; and the fit-order caps 2, 4, 8,
/// 32 at rho = 0.7.
std::vector<AblationCase> ablation_fixed_point_cases();

}  // namespace gs::workload
