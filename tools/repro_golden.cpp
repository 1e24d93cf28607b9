// repro_golden: solve every point of the reproduction's Figures 2-5 and
// of the fixed-point ablation, through the configurations the bench
// programs print (workload/figures.hpp), and write one NDJSON line per
// point to stdout. Numbers are shortest round-trip doubles, so a diff
// against tools/repro_golden.ndjson with zero tolerance pins every bit of
// every N_p, and every fixed point's iteration count and convergence flag.
//
//   fig2 / fig3 / fig4   {"figure","x","n":[N_0..N_3],"iterations","converged"}
//                        or {"figure","x","error"} for an unstable point
//   fig5                 {"figure","x","favored","path",...}: "fixed_point"
//                        adds n/iterations/converged, "heavy_traffic" adds
//                        n_favored, "unstable" nothing
//   ablation_fixed_point {"figure","x","variant","n","iterations","converged"}
//
// Usage: repro_golden > out.ndjson   (tools/repro_golden.sh runs the diff)
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "workload/figures.hpp"
#include "workload/sweep.hpp"

namespace {

using gs::json::Json;

Json numbers(const std::vector<double>& xs) {
  Json out = Json::array();
  for (double x : xs) out.push_back(x);
  return out;
}

Json class_means(const gs::gang::SolveReport& report) {
  Json out = Json::array();
  for (const auto& c : report.per_class) out.push_back(c.mean_jobs);
  return out;
}

void emit(const Json& line) { std::printf("%s\n", line.dump().c_str()); }

void emit_sweep(const char* figure, const std::vector<double>& xs,
                const std::function<gs::gang::SystemParams(double)>& make) {
  for (const gs::workload::SweepPoint& pt : gs::workload::sweep(xs, make)) {
    Json line = Json::object();
    line.set("figure", figure);
    line.set("x", pt.x);
    if (!pt.error.empty()) {
      line.set("error", pt.error);
    } else {
      line.set("n", numbers(pt.model_n));
      line.set("iterations", pt.iterations);
      line.set("converged", pt.converged);
    }
    emit(line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gs::workload;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s > out.ndjson\n", argv[0]);
    return std::string(argv[1]) == "--help" ? 0 : 1;
  }
  emit_sweep("fig2", quantum_axis(), [](double q) {
    return quantum_figure_system(kFigure2ArrivalRate, q);
  });
  emit_sweep("fig3", quantum_axis(), [](double q) {
    return quantum_figure_system(kFigure3ArrivalRate, q);
  });
  emit_sweep("fig4", service_rate_axis(),
             [](double mu) { return service_rate_figure_system(mu); });

  for (double fraction : cycle_fraction_axis()) {
    for (std::size_t favored = 0; favored < 4; ++favored) {
      const Figure5Point pt = figure5_point(favored, fraction, 4.0, 2, {});
      Json line = Json::object();
      line.set("figure", "fig5");
      line.set("x", fraction);
      line.set("favored", favored);
      switch (pt.path) {
        case Figure5Point::Path::kFixedPoint:
          line.set("path", "fixed_point");
          line.set("n", class_means(pt.report));
          line.set("iterations", pt.report.iterations);
          line.set("converged", pt.report.converged);
          break;
        case Figure5Point::Path::kHeavyTraffic:
          line.set("path", "heavy_traffic");
          line.set("n_favored", pt.mean_jobs);
          break;
        case Figure5Point::Path::kUnstable:
          line.set("path", "unstable");
          break;
      }
      emit(line);
    }
  }

  for (const AblationCase& c : ablation_fixed_point_cases()) {
    const auto report = gs::gang::GangSolver(c.system, c.options).solve();
    Json line = Json::object();
    line.set("figure", "ablation_fixed_point");
    line.set("x", c.x);
    line.set("variant", c.variant);
    line.set("n", class_means(report));
    line.set("iterations", report.iterations);
    line.set("converged", report.converged);
    emit(line);
  }
  return 0;
}
