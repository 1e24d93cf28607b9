// perfbench: the repository benchmark. One workload per run:
//
//   perfbench --workload fig2_sweep|heavy_solve|gangd_open --seed N
//             --seconds S --trace 0|1 [--rate R]
//
// --rate overrides gangd_open's offered load (requests/s); it exists to
// measure the daemon's saturation point, which the fixed rate derives from.
//
// Inputs come from the seed alone. With --trace 0 the run measures with
// observability off and prints every end-to-end metric; with --trace 1 it
// measures an untraced and a traced half on the same inputs and prints
// every per-layer metric. Either way it checks every output, and the last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.
// Exit status: 0 when every output check passed, 1 when one failed (the
// result line is still printed), 2 on bad arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig2_sweep|heavy_solve|"
               "gangd_open --seed N --seconds S --trace 0|1 [--rate R]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload")
        args.workload = value;
      else if (flag == "--seed")
        args.seed = std::stoull(value);
      else if (flag == "--seconds")
        args.seconds = std::stod(value);
      else if (flag == "--trace")
        args.trace = std::stoi(value) != 0;
      else if (flag == "--rate")
        args.rate = std::stod(value);
      else
        return usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(args.seconds > 0 && args.seconds <= 600))
    return usage("--seconds must be in (0, 600]");
  if (!(args.rate >= 0 && args.rate <= 1000))
    return usage("--rate must be in [0, 1000]");

  perfbench::Result result;
  try {
    if (args.workload == "fig2_sweep")
      result = perfbench::run_fig2_sweep(args);
    else if (args.workload == "heavy_solve")
      result = perfbench::run_heavy_solve(args);
    else if (args.workload == "gangd_open")
      result = perfbench::run_gangd_open(args);
    else
      return usage("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (std::size_t i = 0; i < result.problems.size() && i < 20; ++i)
    std::cerr << "CHECK FAILED: " << result.problems[i] << "\n";
  if (result.problems.size() > 20)
    std::cerr << "CHECK FAILED: ... and " << result.problems.size() - 20
              << " more\n";
  std::cout << result.json_line() << std::endl;
  return result.correct() ? 0 : 1;
}
