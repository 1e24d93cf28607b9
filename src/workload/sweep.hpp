// Parameter-sweep driver shared by the figure benches: runs the analytic
// solver (and optionally the simulator) across a series of x-values and
// collects one row per point.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "gang/params.hpp"
#include "gang/solver.hpp"
#include "sim/types.hpp"
#include "util/table.hpp"

namespace gs::util {
class ThreadPool;
}  // namespace gs::util

namespace gs::workload {

/// One row of a sweep: the results (model and optionally simulation) at
/// a single x-value.
struct SweepPoint {
  double x = 0.0;  ///< the swept parameter's value at this point
  /// Per-class mean jobs from the analysis; empty when the solve failed
  /// (unstable point), with `error` carrying the reason.
  std::vector<double> model_n;
  /// Per-class mean jobs from the simulator (empty unless simulation was
  /// requested).
  std::vector<double> sim_n;
  int iterations = 0;  ///< fixed-point iterations the solve took
  /// The solve's fixed point met its tolerance within max_iterations
  /// (gang::SolveReport::converged); false on failed points too.
  bool converged = false;
  /// True when this point's fixed point was seeded from an anchor's
  /// solution (SweepOptions::warm_chain) rather than solved cold.
  bool warm_started = false;
  std::string error;  ///< why the solve failed; empty on success
};

/// Knobs for sweep(). Defaults run the analysis only, sequentially and
/// cold — what the figure benches want.
struct SweepOptions {
  /// Solver options applied at every point.
  gang::GangSolveOptions solver{};
  /// When > 0, also simulate each point with this horizon.
  double sim_horizon = 0.0;
  double sim_warmup = 5000.0;        ///< simulated time discarded per run
  std::size_t sim_replications = 1;  ///< independent sim runs per point
  /// Base RNG seed; replication r derives its stream from (seed, r)
  /// (sim::run_replicated), so results are reproducible at any thread
  /// count.
  std::uint64_t sim_seed = 20260706;
  /// Lanes of concurrency across the x-points (each point's solve and
  /// simulation are independent; output keeps row order and per-point
  /// error capture, and is bitwise identical to the sequential run).
  /// When > 1, the per-point solver/simulator concurrency degrades to
  /// sequential inside the pool workers — the sweep level owns the
  /// threads. <= 1 runs the exact sequential path.
  int num_threads = 1;
  /// Pool the point lanes run on. Null (default) means the process-wide
  /// util::ThreadPool::shared(); tests and benches inject their own.
  /// Non-owning; must outlive the sweep. Never affects results.
  util::ThreadPool* pool = nullptr;
  /// Warm-start chaining: solve every chain_stride-th point cold (the
  /// anchors), then seed each remaining point's fixed point from its
  /// nearest anchor's final_slices (ties break toward the lower index).
  /// The plan is a pure function of xs.size() and chain_stride — never of
  /// thread count or timing — so chained results are bitwise identical
  /// across thread counts; they agree with the cold sweep within the
  /// solver tolerance (same fixed point, different starting iterate,
  /// usually far fewer iterations). A point whose warm iteration is
  /// unstable falls back cold (gang::GangSolver::solve_warm), and a point
  /// whose anchor failed solves cold, so error capture matches the cold
  /// sweep. Off by default: the figure benches pin the paper's cold
  /// numbers; the service and throughput benches switch it on.
  bool warm_chain = false;
  /// Distance between cold anchors when warm_chain is set; 1 (or 0)
  /// makes every point an anchor, i.e. the cold sweep. Sweeps with <= 2
  /// points never chain (nothing to amortize).
  std::size_t chain_stride = 8;
};

/// Evaluate `make_system(x)` at each x; unstable points are recorded, not
/// fatal (the paper's sweeps cross stability boundaries). `make_system`
/// must be safe to call concurrently when opts.num_threads > 1 (every
/// factory in workload::paper_configs is a pure function of x).
std::vector<SweepPoint> sweep(
    const std::vector<double>& xs,
    const std::function<gang::SystemParams(double)>& make_system,
    const SweepOptions& opts = {});

/// Render sweep results as the bench's output table: one row per x with
/// N_p per class (and sim columns when present).
util::Table sweep_table(const std::string& x_name,
                        const std::vector<SweepPoint>& points,
                        std::size_t num_classes);

}  // namespace gs::workload
