// Figure 3: mean number of jobs N_p versus mean quantum length 1/gamma
// for the 8-processor system at utilization rho = 0.9 (lambda_p = 0.9).
//
//   $ ./fig3_quantum_heavy [--sim true] [--csv true]
#include "fig_common.hpp"

int main(int argc, char** argv) {
  return gs::bench::run_quantum_figure(
      argc, argv, "fig3_quantum_heavy",
      "Figure 3: N_p vs mean quantum length, heavy load",
      gs::workload::kFigure3ArrivalRate);
}
