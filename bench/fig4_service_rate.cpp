// Figure 4: mean number of jobs N_p versus the mean service rate mu
// (identical for every class). Quantum mean fixed at 5, lambda_p = 0.6.
// The paper's shape: a dramatic drop as mu grows from the stability
// boundary, then rapidly diminishing returns.
//
//   $ ./fig4_service_rate [--sim true] [--csv true]
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace gs;
  util::Cli cli("fig4_service_rate",
                "Figure 4: N_p vs mean service rate (quantum 5, lambda 0.6)");
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;

  const int stages = cli.get_int("stages");
  const auto make = [&](double mu) {
    return workload::service_rate_figure_system(mu, stages);
  };
  const auto results = workload::sweep(workload::service_rate_axis(), make,
                                       bench::sweep_options(cli));
  std::printf(
      "Figure 4: N_p vs mean service rate (P=8, lambda=0.6, quantum=5)\n");
  bench::emit(workload::sweep_table("service_rate", results, 4), cli);
  std::printf(
      "\nPaper shape check: N drops dramatically as mu grows off the "
      "stability boundary, then flattens — little gain past mu ~ 6.\n");
  return 0;
}
