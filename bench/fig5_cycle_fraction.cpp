// Figure 5: mean number of jobs N_p versus the fraction of the
// timeplexing cycle devoted to class p's quantum. lambda_p = 0.6 for all
// classes (rho = 0.6, mu = 0.5:1:2:4). The paper does not pin down how the
// remaining cycle is split; we hold the total mean quantum budget fixed
// and divide the remainder equally among the other three classes (see
// DESIGN.md). Each row varies ONE class's share; the N_p reported in
// column p is that favored class's own mean — the four curves of the
// figure.
//
//   $ ./fig5_cycle_fraction [--csv true]
#include <cstdio>
#include <iostream>

#include "gang/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/figures.hpp"

int main(int argc, char** argv) {
  using namespace gs;
  util::Cli cli("fig5_cycle_fraction",
                "Figure 5: N_p vs class p's share of the timeplexing cycle");
  cli.add_flag("csv", "false", "emit CSV instead of an aligned table");
  cli.add_flag("budget", "4.0", "total mean quantum budget per cycle");
  cli.add_flag("stages", "2", "Erlang stages of the quantum distribution");
  cli.add_flag("threads", "1",
               "worker threads for the per-class chains of each solve");
  if (!cli.parse(argc, argv)) return 1;

  const double budget = cli.get_double("budget");
  const int stages = cli.get_int("stages");
  gang::GangSolveOptions solver_opts;
  solver_opts.num_threads = cli.get_int("threads");

  util::Table table({"fraction", "N0", "N1", "N2", "N3", "note"});
  for (double fraction : workload::cycle_fraction_axis()) {
    std::vector<util::Cell> row;
    row.emplace_back(fraction);
    std::string note;
    for (std::size_t favored = 0; favored < 4; ++favored) {
      const workload::Figure5Point pt = workload::figure5_point(
          favored, fraction, budget, stages, solver_opts);
      switch (pt.path) {
        case workload::Figure5Point::Path::kFixedPoint:
          row.emplace_back(pt.mean_jobs);
          break;
        case workload::Figure5Point::Path::kHeavyTraffic:
          row.emplace_back(pt.mean_jobs);
          note = "others saturated: favored-class heavy-traffic solve";
          break;
        case workload::Figure5Point::Path::kUnstable:
          row.emplace_back(std::string("-"));
          note = "favored class unstable";
          break;
      }
    }
    row.emplace_back(note);
    table.add_row(std::move(row));
  }
  std::printf(
      "Figure 5: N_p vs fraction of the cycle given to class p (P=8, "
      "lambda=0.6, budget=%.1f)\nColumn N_p: class p is the favored class "
      "of that column (four separate experiments per row).\n",
      budget);
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::printf(
      "\nPaper shape check: each class's N_p decreases monotonically as "
      "its own share of the cycle grows.\n");
  return 0;
}
