#include "gang/solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "gang/anderson.hpp"
#include "gang/away_period.hpp"
#include "obs/obs.hpp"
#include "phase/fitting.hpp"
#include "qbd/arena.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace gs::gang {

namespace {

// Structure key for the per-thread workspace arena: two solves with equal
// keys run chains of (almost certainly) identical block shapes, so their
// workspaces can trade scratch without reallocation. Collisions are
// harmless — the solvers reshape scratch on use — so this hashes only the
// shape-determining integers, not the rates.
std::uint64_t structure_key(const SystemParams& params,
                            const GangSolveOptions& options) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(params.processors());
  mix(params.num_classes());
  for (const ClassParams& c : params.classes()) {
    mix(c.arrival.order());
    mix(c.service.order());
    mix(c.quantum.order());
    mix(c.overhead.order());
    mix(c.partition_size);
  }
  mix(static_cast<std::uint64_t>(options.eff_mode));
  mix(static_cast<std::uint64_t>(options.fit_max_order));
  return h;
}

}  // namespace

double SolveReport::total_mean_jobs() const {
  double total = 0.0;
  for (const auto& c : per_class) total += c.mean_jobs;
  return total;
}

ClassResult solve_class_heavy_traffic(const SystemParams& params,
                                      std::size_t p,
                                      const qbd::SolveOptions& opts) {
  ClassProcess proc(params, p, away_period_heavy_traffic(params, p));
  const qbd::QbdSolution sol = qbd::solve(proc.process(), opts);
  const EffectiveQuantum eq = proc.effective_quantum(sol);
  ClassResult r;
  r.name = params.cls(p).name.empty() ? "class" + std::to_string(p)
                                      : params.cls(p).name;
  r.mean_jobs = sol.mean_level();
  r.var_jobs = sol.second_moment_level() - r.mean_jobs * r.mean_jobs;
  r.response_time = r.mean_jobs / params.cls(p).arrival_rate();
  r.serving_fraction = proc.serving_time_fraction(sol);
  r.prob_empty = sol.level_mass(0);
  r.sp_r = sol.spectral_radius_r();
  r.eff_quantum_mean = eq.m1;
  r.eff_quantum_atom = eq.atom;
  const auto view = proc.arrival_view(sol);
  r.arrive_immediate = view.prob_immediate;
  r.arrive_wait_slice = view.prob_wait_for_slice;
  r.arrive_queued = view.prob_queued;
  r.mean_slice_wait = view.mean_slice_wait;
  return r;
}

GangSolver::GangSolver(SystemParams params, GangSolveOptions options)
    : params_(std::move(params)), options_(options) {
  GS_CHECK(options_.max_iterations >= 1, "need at least one iteration");
  GS_CHECK(options_.tol > 0.0, "convergence tolerance must be positive");
}

std::vector<PhaseType> GangSolver::initial_slices(InitMode mode) const {
  std::vector<PhaseType> slices;
  slices.reserve(params_.num_classes());
  const double rho = params_.total_utilization();
  for (std::size_t q = 0; q < params_.num_classes(); ++q) {
    const PhaseType& full = params_.cls(q).quantum;
    if (mode == InitMode::kHeavyTraffic) {
      slices.push_back(full);
    } else {
      // Optimistic: a class is idle at its turn roughly when the system is
      // underloaded; thin the slice by that idle guess. The fixed point
      // corrects the crudeness of this starting point.
      const double atom = std::clamp(1.0 - rho, 0.0, 1.0 - 1e-6);
      slices.push_back(phase::with_atom(full, atom));
    }
  }
  return slices;
}

bool GangSolver::accelerates(bool optimistic) const {
  return options_.eff_mode == EffQuantumMode::kMomentMatched && !optimistic;
}

SolveReport GangSolver::run(const std::vector<PhaseType>& init_slices,
                            bool accelerate) const {
  const std::size_t L = params_.num_classes();
  obs::Span span("gang.solve");
  span.arg("classes", static_cast<std::int64_t>(L));
  obs::count("gang.solve.count");
  std::vector<PhaseType> slices = init_slices;
  std::optional<AndersonAccelerator> accel;
  if (accelerate) accel.emplace(params_);
  std::vector<double> prev_n(L, -1.0);

  SolveReport report;
  const int max_iter = options_.fixed_point ? options_.max_iterations : 1;

  // Lanes come from the injected pool or the process-wide shared pool —
  // nothing is constructed or joined per solve. With num_threads <= 1 (or
  // when this solver already runs on a pool worker, e.g. inside a
  // parallel sweep) every parallel_for below takes the exact sequential
  // path. Grain 1: each index is a full QBD solve, far coarser than the
  // claim traffic.
  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : util::ThreadPool::shared();
  const util::ParallelOptions lanes{
      static_cast<std::size_t>(std::max(1, options_.num_threads)),
      /*grain=*/1};
  // One scratch Workspace per class for the whole fixed point, borrowed
  // from the calling thread's arena: the chains keep their shapes across
  // iterations *and* across same-shaped solves on this thread (sweep
  // points, consecutive daemon requests), so after the first pass on the
  // first point the R-matrix and boundary solves stop allocating.
  qbd::WorkspaceArena::Lease workspaces =
      qbd::WorkspaceArena::borrow(structure_key(params_, options_), L);
  // The processes persist across iterations: when only the away-period
  // rates move (the common case), update_away revalues the existing QBD
  // blocks in place instead of rebuilding from scratch.
  std::vector<std::optional<ClassProcess>> procs(L);
  std::vector<std::optional<qbd::QbdSolution>> sols(L);

  for (int iter = 1; iter <= max_iter; ++iter) {
    obs::Span iter_span("gang.iteration");
    iter_span.arg("iter", static_cast<std::int64_t>(iter));
    // Solve every class against the current away periods. The per-class
    // chains are independent given `slices`, so they solve concurrently;
    // each task touches only its own slots and workspace.
    std::vector<double> n(L, 0.0);
    pool.parallel_for(L, [&](std::size_t p) {
      obs::Span class_span("gang.class_solve");
      class_span.arg("class", static_cast<std::int64_t>(p));
      if (procs[p]) {
        procs[p]->update_away(
            away_period(params_, p, slices, &workspaces[p]));
      } else {
        procs[p].emplace(params_, p,
                         away_period(params_, p, slices, &workspaces[p]),
                         &workspaces[p]);
      }
      sols[p].emplace(
          qbd::solve(procs[p]->process(), options_.qbd, &workspaces[p]));
      n[p] = sols[p]->mean_level();
    }, lanes);

    double delta = 0.0;
    for (std::size_t p = 0; p < L; ++p)
      delta = std::max(delta, std::fabs(n[p] - prev_n[p]));
    prev_n = n;
    report.iterations = iter;
    report.final_delta = delta;

    const bool done = !options_.fixed_point || delta < options_.tol ||
                      iter == max_iter;

    // Effective quanta drive both the next iteration and the report.
    std::vector<EffectiveQuantum> effq(L);
    pool.parallel_for(L, [&](std::size_t p) {
      effq[p] = procs[p]->effective_quantum(
          *sols[p], options_.truncation,
          options_.eff_mode == EffQuantumMode::kExact);
    }, lanes);

    if (done) {
      report.converged = !options_.fixed_point || delta < options_.tol;
      obs::count("gang.solve.iterations",
                 static_cast<std::uint64_t>(report.iterations));
      obs::observe("gang.solve.iterations.hist",
                   static_cast<double>(report.iterations));
      if (!report.converged) obs::count("gang.solve.not_converged");
      span.arg("iterations", static_cast<std::int64_t>(report.iterations));
      span.arg("converged", static_cast<std::int64_t>(report.converged));
      report.per_class.clear();
      report.per_class.reserve(L);
      report.final_slices.reserve(L);
      for (std::size_t p = 0; p < L; ++p)
        report.final_slices.push_back(effq[p].fitted(options_.fit_max_order));
      for (std::size_t p = 0; p < L; ++p) {
        ClassResult r;
        r.name = params_.cls(p).name.empty()
                     ? "class" + std::to_string(p)
                     : params_.cls(p).name;
        r.mean_jobs = n[p];
        r.var_jobs = sols[p]->second_moment_level() - n[p] * n[p];
        r.response_time = n[p] / params_.cls(p).arrival_rate();
        r.serving_fraction = procs[p]->serving_time_fraction(*sols[p]);
        r.prob_empty = sols[p]->level_mass(0);
        r.sp_r = sols[p]->spectral_radius_r();
        r.eff_quantum_mean = effq[p].m1;
        r.eff_quantum_atom = effq[p].atom;
        const auto view = procs[p]->arrival_view(*sols[p]);
        r.arrive_immediate = view.prob_immediate;
        r.arrive_wait_slice = view.prob_wait_for_slice;
        r.arrive_queued = view.prob_queued;
        r.mean_slice_wait = view.mean_slice_wait;
        for (std::size_t lvl = 0; lvl < options_.queue_dist_levels; ++lvl)
          r.queue_dist.push_back(sols[p]->level_mass(lvl));
        report.mean_cycle_length +=
            effq[p].m1 + params_.cls(p).overhead.mean();
        report.per_class.push_back(std::move(r));
      }
      return report;
    }

    // The next iterate: the accelerated update when the run carries an
    // accelerator, otherwise the plain update (the fitted, or exact,
    // quanta themselves).
    if (accel) {
      accel->next_slices(effq, options_.fit_max_order, slices);
    } else {
      for (std::size_t q = 0; q < L; ++q)
        slices[q] = options_.eff_mode == EffQuantumMode::kExact
                        ? *effq[q].exact
                        : effq[q].fitted(options_.fit_max_order);
    }
    log::debug("gang fixed point iteration ", iter, ": delta=", delta);
  }
  GS_ASSERT(false);  // loop always returns via `done`
  return report;
}

SolveReport GangSolver::solve_warm(
    const std::vector<PhaseType>& slices) const {
  GS_CHECK(slices.size() == params_.num_classes(),
           "warm start needs one slice per class (got " +
               std::to_string(slices.size()) + " for " +
               std::to_string(params_.num_classes()) + " classes)");
  const double rho = params_.total_utilization();
  if (rho >= 1.0) {
    throw NumericalError(
        "total utilization " + std::to_string(rho) +
        " >= 1: the gang-scheduled system cannot be stable");
  }
  try {
    obs::count("gang.solve.warm");
    SolveReport report = run(slices, accelerates(/*optimistic=*/false));
    report.used_warm_start = true;
    return report;
  } catch (const NumericalError& e) {
    // A donor's slices can be too optimistic for the new scenario (e.g.
    // the perturbation pushed a class toward saturation); the cold path
    // re-establishes the paper's stability ordering.
    obs::count("gang.solve.warm_fallback");
    log::info("warm start unstable (", e.what(), "); falling back to cold");
    return solve();
  }
}

SolveReport GangSolver::solve() const {
  const double rho = params_.total_utilization();
  if (rho >= 1.0) {
    throw NumericalError(
        "total utilization " + std::to_string(rho) +
        " >= 1: the gang-scheduled system cannot be stable");
  }
  try {
    return run(initial_slices(options_.init),
               accelerates(options_.init == InitMode::kOptimistic));
  } catch (const NumericalError& e) {
    if (options_.init == InitMode::kHeavyTraffic &&
        options_.fallback_to_optimistic) {
      obs::count("gang.solve.fallback_optimistic");
      log::info(
          "heavy-traffic initialization unstable (", e.what(),
          "); retrying with the optimistic initialization");
      SolveReport report = run(initial_slices(InitMode::kOptimistic),
                               accelerates(/*optimistic=*/true));
      report.used_optimistic_init = true;
      return report;
    }
    throw;
  }
}

}  // namespace gs::gang
