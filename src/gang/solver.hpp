// Top-level solver for the gang-scheduling model: the fixed-point
// iteration of Section 4.3 over the L per-class QBD solutions.
//
//   1. Initialize every away period F_p from Theorem 4.1 (heavy traffic:
//      the other classes use their full quanta).
//   2. Solve the L per-class chains (Theorem 4.2).
//   3. Extract each class's effective quantum (Theorem 4.3) — the slice
//      truncated by queue-emptying, with an atom at zero — and rebuild
//      every F_p from the other classes' effective quanta.
//   4. Repeat until the mean job counts stop moving.
//
// The heavy-traffic initialization is the most pessimistic (longest) away
// period, so a system stable under it stays stable through the iteration;
// if it is *not* stable there but the true system might be (other classes
// mostly idle), the solver falls back to an optimistic initialization that
// discounts each class's slice by its idle probability.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gang/class_process.hpp"
#include "gang/params.hpp"
#include "qbd/arena.hpp"

namespace gs::util {
class ThreadPool;
}  // namespace gs::util

namespace gs::gang {

/// How the effective quantum is represented inside F_p.
enum class EffQuantumMode {
  kMomentMatched,  ///< small PH with matching atom + two moments (default)
  kExact           ///< truncated exact representation (large; validation)
};

/// Where the fixed-point iteration starts from.
enum class InitMode {
  kHeavyTraffic,  ///< Theorem 4.1 (default)
  kOptimistic     ///< full quanta thinned by an idle-probability atom
};

/// Knobs for GangSolver. The defaults solve the paper's model as
/// published; every knob is part of the scenario identity in the
/// service layer except num_threads/pool, which can never change the
/// answer (parallel solves are bitwise identical to sequential).
struct GangSolveOptions {
  /// false: stop after the heavy-traffic solution (no fixed point).
  bool fixed_point = true;
  /// Effective-quantum representation inside the away periods.
  EffQuantumMode eff_mode = EffQuantumMode::kMomentMatched;
  /// PH order cap for the moment-matched effective-quantum fit.
  int fit_max_order = 8;
  double tol = 1e-6;          ///< max |N_p - N_p'| across classes
  /// Fixed-point iteration cap; exceeding it reports converged = false.
  int max_iterations = 60;
  /// Tail truncation for the per-class chains (tail_eps, max_levels).
  TruncationOptions truncation{};
  /// Initialization (Theorem 4.1 by default; see InitMode).
  InitMode init = InitMode::kHeavyTraffic;
  /// Retry with the optimistic initialization when the heavy-traffic
  /// initialization is not stable for some class.
  bool fallback_to_optimistic = true;
  /// Number of queue-length probabilities P(N_p = n) to report per class.
  std::size_t queue_dist_levels = 0;
  /// Options forwarded to every per-class QBD solve (R tolerances, kernels).
  qbd::SolveOptions qbd{};
  /// Lanes of concurrency across the L per-class chains of each
  /// fixed-point iteration (the chains are independent given the away
  /// periods, so this never reorders any floating-point reduction —
  /// parallel reports are bitwise identical to sequential ones). <= 1
  /// runs the exact sequential path.
  int num_threads = 1;
  /// Pool the per-class lanes run on. Null (default) means the
  /// process-wide util::ThreadPool::shared(); tests and embedders inject
  /// their own. Non-owning; must outlive the solve. Never affects
  /// results, only where the lanes live.
  util::ThreadPool* pool = nullptr;
};

/// Per-class performance measures at the final iterate (Section 4.5's
/// metrics plus the arrival-point decomposition).
struct ClassResult {
  std::string name;  ///< the class's ClassParams::name, for reporting
  double mean_jobs = 0.0;       ///< N_p (eq. 37 / eq. 11)
  double var_jobs = 0.0;        ///< Var[N_p] from the level moments
  double response_time = 0.0;   ///< T_p = N_p / lambda_p (Little)
  double serving_fraction = 0.0;  ///< long-run share of time class p runs
  double prob_empty = 0.0;      ///< P(N_p = 0)
  double sp_r = 0.0;            ///< spectral radius of class p's R matrix
  double eff_quantum_mean = 0.0;  ///< E of the last effective quantum
  double eff_quantum_atom = 0.0;  ///< P(zero-length slice), last iteration
  /// Arrival-point (Palm) decomposition — what a class-p arrival finds:
  double arrive_immediate = 0.0;   ///< free partition, class running
  double arrive_wait_slice = 0.0;  ///< free partition, class away
  double arrive_queued = 0.0;      ///< all partitions taken
  double mean_slice_wait = 0.0;    ///< E[residual away | waits for slice]
  std::vector<double> queue_dist;  ///< P(N_p = n), n = 0..requested-1
};

/// Everything a solve produced: the per-class measures, how the
/// iteration went, and the fixed-point state itself (for warm starts).
struct SolveReport {
  std::vector<ClassResult> per_class;  ///< one entry per class, in order
  int iterations = 0;      ///< fixed-point iterations run (1 = init only)
  bool converged = false;  ///< every N_p moved < tol on the last iterate
  double final_delta = 0.0;  ///< max |N_p - N_p'| at the last iterate
  bool used_optimistic_init = false;  ///< heavy-traffic init was unstable
  bool used_warm_start = false;       ///< produced by solve_warm's warm path
  /// The fitted effective-quantum slice of every class at the final
  /// iterate — the fixed-point state itself. Feeding these to
  /// GangSolver::solve_warm on a nearby scenario starts its iteration
  /// from this solution instead of the Theorem-4.1 initialization.
  std::vector<PhaseType> final_slices;
  /// Expected timeplexing-cycle length E[Z_n] = sum_p (E[effective
  /// quantum_p] + E[C_p]) — the quantity the paper's conclusion says the
  /// model is needed to tune.
  double mean_cycle_length = 0.0;

  /// sum_p N_p — the paper's headline objective.
  double total_mean_jobs() const;
};

/// Solve a single class against its heavy-traffic away period (Theorem
/// 4.1) without touching the other classes' chains. This is exact when
/// every other class is saturated (their slices always run to the full
/// quantum) — the right tool for asymmetric-share studies like Figure 5,
/// where favoring one class can push the others past their stability
/// boundary while the favored class itself remains stable.
ClassResult solve_class_heavy_traffic(const SystemParams& params,
                                      std::size_t p,
                                      const qbd::SolveOptions& opts = {});

/// The paper's model, solved: owns a (params, options) pair and runs
/// the Section-4.3 fixed point on demand. Immutable after construction;
/// solve()/solve_warm() are const and safe to call concurrently from
/// different threads (each call carries its own state).
class GangSolver {
 public:
  /// Validates nothing beyond what SystemParams already enforced;
  /// cheap — all work happens in solve().
  GangSolver(SystemParams params, GangSolveOptions options = {});

  /// The system being solved, as passed in.
  const SystemParams& params() const { return params_; }
  /// The solve options, as passed in (defaults filled).
  const GangSolveOptions& options() const { return options_; }

  /// Run the solve. Throws gs::NumericalError when the system is unstable
  /// (some class's chain violates the drift condition under every
  /// permitted initialization).
  SolveReport solve() const;

  /// Run the solve starting the fixed-point iteration from `slices` — the
  /// `final_slices` of a previously solved nearby scenario — instead of
  /// the Theorem-4.1 heavy-traffic initialization. Converges to the same
  /// fixed point (within options().tol on every N_p) in fewer iterations
  /// when the scenarios are close. Requires one slice per class; falls
  /// back to the cold solve() when the warm iteration is unstable.
  SolveReport solve_warm(const std::vector<PhaseType>& slices) const;

 private:
  std::vector<PhaseType> initial_slices(InitMode mode) const;
  // Whether a fixed-point run takes the Anderson-accelerated update
  // (gang/anderson.hpp): moment-matched runs that did not start from the
  // optimistic initialization.
  bool accelerates(bool optimistic) const;
  SolveReport run(const std::vector<PhaseType>& init_slices,
                  bool accelerate) const;

  SystemParams params_;
  GangSolveOptions options_;
};

}  // namespace gs::gang
