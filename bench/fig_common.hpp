// Shared scaffolding for the figure benches: the quantum-length sweep that
// Figures 2 and 3 share, and the standard flag set. The figures' axes and
// systems live in workload/figures.hpp.
#pragma once

#include <cstdio>
#include <iostream>
#include <vector>

#include "util/cli.hpp"
#include "workload/figures.hpp"
#include "workload/sweep.hpp"

namespace gs::bench {

inline void add_common_flags(util::Cli& cli) {
  cli.add_flag("csv", "false", "emit CSV instead of an aligned table");
  cli.add_flag("sim", "false", "add simulation columns (slower)");
  cli.add_flag("sim_horizon", "100000", "simulated time per point");
  cli.add_flag("stages", "2", "Erlang stages of the quantum distribution");
  cli.add_flag("threads", "1",
               "worker threads (sweep points / per-class chains / "
               "simulator replications; 1 = sequential, same results)");
}

inline workload::SweepOptions sweep_options(const util::Cli& cli) {
  workload::SweepOptions opts;
  if (cli.get_bool("sim")) {
    opts.sim_horizon = cli.get_double("sim_horizon");
  }
  // One knob drives every level; the pool's nesting guard keeps the
  // innermost active level sequential, so results do not depend on it.
  opts.num_threads = cli.get_int("threads");
  opts.solver.num_threads = opts.num_threads;
  return opts;
}

inline void emit(const util::Table& table, const util::Cli& cli) {
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Run the Figure 2/3 sweep at the given per-class arrival rate.
inline int run_quantum_figure(int argc, char** argv, const char* name,
                              const char* what, double arrival_rate) {
  util::Cli cli(name, what);
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;

  const int stages = cli.get_int("stages");
  const auto make = [&](double quantum) {
    return workload::quantum_figure_system(arrival_rate, quantum, stages);
  };
  const auto results = workload::sweep(workload::quantum_axis(), make,
                                       sweep_options(cli));
  std::printf("%s (P=8, rho=%.1f, overhead=0.01, Erlang-%d quanta)\n", what,
              arrival_rate, stages);
  emit(workload::sweep_table("quantum_mean", results, 4), cli);
  std::printf(
      "\nPaper shape check: N_p falls steeply as the quantum grows from "
      "~0, bottoms out, then rises again (exhaustive-service regime); "
      "heavier load moves the knees together.\n");
  return 0;
}

}  // namespace gs::bench
