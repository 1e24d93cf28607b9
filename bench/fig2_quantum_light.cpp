// Figure 2: mean number of jobs N_p versus mean quantum length 1/gamma
// for the 8-processor system at utilization rho = 0.4 (lambda_p = 0.4).
//
//   $ ./fig2_quantum_light [--sim true] [--csv true]
#include "fig_common.hpp"

int main(int argc, char** argv) {
  return gs::bench::run_quantum_figure(
      argc, argv, "fig2_quantum_light",
      "Figure 2: N_p vs mean quantum length, light load",
      gs::workload::kFigure2ArrivalRate);
}
