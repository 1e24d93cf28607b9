#include "gang/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "gang/anderson.hpp"
#include "gang/away_period.hpp"
#include "linalg/batch.hpp"
#include "obs/obs.hpp"
#include "phase/fitting.hpp"
#include "qbd/arena.hpp"
#include "qbd/batch.hpp"
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

std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// The next iterate's slices from the effective quanta the current one
// produced: the accelerated update when the run carries an accelerator,
// otherwise the plain update (the fitted, or exact, quanta themselves).
void advance_slices(std::optional<AndersonAccelerator>& accel,
                    const std::vector<EffectiveQuantum>& effq,
                    const GangSolveOptions& options,
                    std::vector<PhaseType>& slices) {
  if (accel) {
    accel->next_slices(effq, options.fit_max_order, slices);
    return;
  }
  for (std::size_t q = 0; q < effq.size(); ++q) {
    slices[q] = options.eff_mode == EffQuantumMode::kExact
                    ? *effq[q].exact
                    : effq[q].fitted(options.fit_max_order);
  }
}

// Arena-key tags so a structure's scalar slots, batch slots, and the
// per-(class, lane) slots of a lock-step solve keep separate warm entries.
constexpr std::uint64_t kBatchWsTag = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kLaneWsTag = 0xc2b2ae3d27d4eb4full;

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

    advance_slices(accel, effq, options_, slices);
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

std::uint64_t GangSolver::batch_key() const {
  std::uint64_t h = structure_key(params_, options_);
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(options_.fixed_point ? 1 : 0);
  mix(double_bits(options_.tol));
  mix(static_cast<std::uint64_t>(options_.max_iterations));
  mix(double_bits(options_.truncation.tail_eps));
  mix(static_cast<std::uint64_t>(options_.truncation.max_levels));
  mix(double_bits(options_.truncation.saturated_tail));
  mix(static_cast<std::uint64_t>(options_.init));
  mix(options_.fallback_to_optimistic ? 1 : 0);
  mix(static_cast<std::uint64_t>(options_.queue_dist_levels));
  mix(double_bits(options_.qbd.r_options.tol));
  mix(static_cast<std::uint64_t>(options_.qbd.r_options.max_iter));
  mix(options_.qbd.r_options.sparse ? 1 : 0);
  mix(options_.qbd.r_options.tiled ? 1 : 0);
  mix(options_.qbd.skip_stability_check ? 1 : 0);
  return h;
}

void GangSolver::run_chunk(const std::vector<BatchItem>& items,
                           const std::vector<std::size_t>& idxs,
                           std::vector<BatchOutcome>& out) {
  const std::size_t width = idxs.size();
  const GangSolver& ref = *items[idxs[0]].solver;
  const GangSolveOptions& opts = ref.options_;
  const std::size_t L = ref.params_.num_classes();
  const int max_iter = opts.fixed_point ? opts.max_iterations : 1;

  obs::Span span("gang.solve_batch.chunk");
  span.arg("width", static_cast<std::int64_t>(width));
  span.arg("classes", static_cast<std::int64_t>(L));
  obs::count("gang.solve_batch.lanes", width);

  // One lock-step lane per scenario. A lane leaves the lock-step either
  // by *retiring* (its fixed point converged; report built, storage
  // frozen) or by *failing*. A failure that the scalar path would have
  // thrown as NumericalError is retryable — the driver replays the
  // scalar retry ladder in lock-step (warm -> cold heavy-traffic ->
  // optimistic init) across all lanes that reached the same rung. A
  // lane the ladder cannot finish re-runs the scalar solve below, which
  // reproduces the scalar exceptions and retries by construction.
  struct Lane {
    const GangSolver* solver = nullptr;
    std::vector<PhaseType> slices;
    std::vector<double> prev_n, n;
    std::vector<std::optional<ClassProcess>> procs;
    std::vector<std::optional<qbd::QbdSolution>> sols;
    std::vector<EffectiveQuantum> effq;
    /// Accelerated update history; empty for plain-update runs.
    std::optional<AndersonAccelerator> accel;
    SolveReport report;
    bool active = false;
    bool retryable = false;  ///< last failure was a NumericalError
    bool fellback = false;   ///< needs the scalar re-run
    bool warm = false;       ///< currently running from warm slices
  };

  {
    const std::uint64_t key = ref.batch_key();
    qbd::WorkspaceArena::BatchLease batch_ws = qbd::WorkspaceArena::borrow_batch(
        key ^ (kBatchWsTag + width), L);
    // ClassProcess revalue staging and the per-lane boundary stage each
    // need a scalar workspace of their own: slot p * width + lane.
    qbd::WorkspaceArena::Lease lane_ws =
        qbd::WorkspaceArena::borrow(key ^ kLaneWsTag, L * width);
    const auto sws = [&lane_ws, width](std::size_t p,
                                       std::size_t lane) -> qbd::Workspace* {
      return &lane_ws[p * width + lane];
    };

    std::vector<Lane> lanes(width);
    const auto reset_lane = [L](Lane& ln, std::vector<PhaseType> slices,
                                bool warm, bool optimistic) {
      ln.slices = std::move(slices);
      ln.accel.reset();
      if (ln.solver->accelerates(optimistic))
        ln.accel.emplace(ln.solver->params_);
      ln.prev_n.assign(L, -1.0);
      ln.n.assign(L, 0.0);
      ln.procs.clear();
      ln.procs.resize(L);
      ln.sols.clear();
      ln.sols.resize(L);
      ln.effq.clear();
      ln.effq.resize(L);
      ln.report = SolveReport{};
      ln.active = true;
      ln.retryable = false;
      ln.warm = warm;
    };
    for (std::size_t wi = 0; wi < width; ++wi) {
      Lane& ln = lanes[wi];
      ln.solver = items[idxs[wi]].solver;
      const std::vector<PhaseType>* warm = items[idxs[wi]].warm_slices;
      // The scalar preconditions (utilization < 1, one warm slice per
      // class); a lane failing them falls straight back so the scalar
      // path can throw its exact diagnostics.
      if (ln.solver->params_.total_utilization() >= 1.0 ||
          (warm != nullptr && warm->size() != L)) {
        ln.fellback = true;
        continue;
      }
      reset_lane(ln,
                 warm != nullptr
                     ? *warm
                     : ln.solver->initial_slices(ln.solver->options_.init),
                 warm != nullptr,
                 warm == nullptr &&
                     ln.solver->options_.init == InitMode::kOptimistic);
    }
    const auto fail = [&lanes](std::size_t wi, bool retryable) {
      lanes[wi].retryable = retryable;
      lanes[wi].fellback = true;
      lanes[wi].active = false;
    };

    qbd::BatchRSolveResult rres;
    qbd::BatchBoundaryResult bres;
    EffQuantumBatchResult eres;
    std::vector<const qbd::QbdProcess*> bprocs;
    std::vector<const ClassProcess*> eprocs;
    std::vector<const qbd::QbdSolution*> esols;
    const auto run_lockstep = [&] {
      const auto any_active = [&lanes] {
        for (const Lane& ln : lanes)
          if (ln.active) return true;
        return false;
      };
      for (int iter = 1; iter <= max_iter && any_active(); ++iter) {
        for (std::size_t p = 0; p < L; ++p) {
          // Build / revalue every active lane's chain for this class
          // (scalar per lane — the blocks are cheap next to the R solve)
          // and apply the drift admission exactly as qbd::solve would.
          {
          obs::Span revalue_span("gang.batch.revalue");
          for (std::size_t wi = 0; wi < width; ++wi) {
            Lane& ln = lanes[wi];
            if (!ln.active) continue;
            try {
              if (ln.procs[p]) {
                ln.procs[p]->update_away(away_period(ln.solver->params_, p,
                                                     ln.slices, sws(p, wi)));
              } else {
                ln.procs[p].emplace(ln.solver->params_, p,
                                    away_period(ln.solver->params_, p,
                                                ln.slices, sws(p, wi)),
                                    sws(p, wi));
              }
              if (!opts.qbd.skip_stability_check &&
                  !ln.procs[p]->process().drift().stable) {
                fail(wi, /*retryable=*/true);  // scalar throws NumericalError
              }
            } catch (const NumericalError&) {
              fail(wi, /*retryable=*/true);
            } catch (const Error&) {
              fail(wi, /*retryable=*/false);
            }
          }
          }
          // The fitted away periods can change a lane's block order
          // mid-iteration, so group the active lanes by their current
          // repeating dimension and lock-step each shape group.
          std::vector<std::size_t> dims;
          for (std::size_t wi = 0; wi < width; ++wi) {
            if (!lanes[wi].active) continue;
            const std::size_t d =
                lanes[wi].procs[p]->process().blocks().a1.rows();
            if (std::find(dims.begin(), dims.end(), d) == dims.end())
              dims.push_back(d);
          }
          for (const std::size_t d : dims) {
            linalg::LaneMask mask(width, false);
            qbd::BatchWorkspace& bw = batch_ws[p];
            bw.blocks.ensure(d, width);
            for (std::size_t wi = 0; wi < width; ++wi) {
              if (!lanes[wi].active) continue;
              const qbd::QbdBlocks& blk =
                  lanes[wi].procs[p]->process().blocks();
              if (blk.a1.rows() != d) continue;
              mask.set(wi, true);
              bw.blocks.load_lane(wi, blk);
            }
            if (!mask.any()) continue;
            qbd::solve_r_logreduction_batch(bw.blocks, mask,
                                            opts.qbd.r_options, bw, rres);
            linalg::LaneMask bmask(width, false);
            for (std::size_t wi = 0; wi < width; ++wi) {
              if (!mask[wi] || !lanes[wi].active) continue;
              if (!rres.ok(wi)) {
                fail(wi, /*retryable=*/true);  // R errors are NumericalError
                continue;
              }
              bmask.set(wi, true);
            }
            if (!bmask.any()) continue;
            // Batched boundary/stationary stage: the dim group pins the
            // repeating dimension; sub-group by boundary dimension (the
            // balance system's other axis) and lock-step each subgroup on
            // the batched R the solver just produced.
            obs::Span boundary_span("gang.batch.boundary");
            std::vector<std::size_t> bdims;
            for (std::size_t wi = 0; wi < width; ++wi) {
              if (!bmask[wi]) continue;
              const std::size_t bd =
                  lanes[wi].procs[p]->process().boundary_size();
              if (std::find(bdims.begin(), bdims.end(), bd) == bdims.end())
                bdims.push_back(bd);
            }
            for (const std::size_t bd : bdims) {
              linalg::LaneMask gmask(width, false);
              bprocs.assign(width, nullptr);
              for (std::size_t wi = 0; wi < width; ++wi) {
                if (!bmask[wi]) continue;
                const qbd::QbdProcess& proc = lanes[wi].procs[p]->process();
                if (proc.boundary_size() != bd) continue;
                gmask.set(wi, true);
                bprocs[wi] = &proc;
              }
              qbd::solve_boundary_batch(bprocs.data(), rres.r, gmask,
                                        opts.qbd, bw, bres);
              for (std::size_t wi = 0; wi < width; ++wi) {
                if (!gmask[wi]) continue;
                Lane& ln = lanes[wi];
                if (!bres.ok(wi)) {
                  fail(wi, bres.numerical[wi] != 0);
                  continue;
                }
                try {
                  ln.sols[p].emplace(std::move(*bres.solution[wi]));
                  ln.n[p] = ln.sols[p]->mean_level();
                } catch (const NumericalError&) {
                  fail(wi, /*retryable=*/true);
                } catch (const Error&) {
                  fail(wi, /*retryable=*/false);
                }
              }
            }
          }
        }
  
        // Batched effective-quantum refit: one lane-masked extraction per
        // class across every still-active lane. A lane that fails a class
        // drops out of the remaining classes, exactly as its scalar
        // exception would have aborted that lane's per-class loop.
        {
          obs::Span effq_span("gang.batch.effq");
          linalg::LaneMask emask(width, false);
          for (std::size_t wi = 0; wi < width; ++wi)
            if (lanes[wi].active) emask.set(wi, true);
          eprocs.assign(width, nullptr);
          esols.assign(width, nullptr);
          for (std::size_t p = 0; p < L && emask.any(); ++p) {
            for (std::size_t wi = 0; wi < width; ++wi) {
              if (!emask[wi]) continue;
              eprocs[wi] = &*lanes[wi].procs[p];
              esols[wi] = &*lanes[wi].sols[p];
            }
            ClassProcess::effective_quantum_batch(
                eprocs.data(), esols.data(), emask, opts.truncation,
                opts.eff_mode == EffQuantumMode::kExact, eres);
            for (std::size_t wi = 0; wi < width; ++wi) {
              if (!emask[wi]) continue;
              if (!eres.ok(wi)) {
                fail(wi, eres.numerical[wi] != 0);
                emask.set(wi, false);
                continue;
              }
              lanes[wi].effq[p] = std::move(eres.quantum[wi]);
            }
          }
        }

        for (std::size_t wi = 0; wi < width; ++wi) {
          Lane& ln = lanes[wi];
          if (!ln.active) continue;
          double delta = 0.0;
          for (std::size_t p = 0; p < L; ++p)
            delta = std::max(delta, std::fabs(ln.n[p] - ln.prev_n[p]));
          ln.prev_n = ln.n;
          ln.report.iterations = iter;
          ln.report.final_delta = delta;
          const bool done =
              !opts.fixed_point || delta < opts.tol || iter == max_iter;
          try {
            if (done) {
              // Retire the lane: build its report exactly as run() does.
              SolveReport& report = ln.report;
              report.converged = !opts.fixed_point || delta < opts.tol;
              report.per_class.clear();
              report.per_class.reserve(L);
              report.final_slices.reserve(L);
              {
                obs::StageTimer fit_timer("gang.batch.effq.fit");
                for (std::size_t p = 0; p < L; ++p)
                  report.final_slices.push_back(
                      ln.effq[p].fitted(opts.fit_max_order));
              }
              for (std::size_t p = 0; p < L; ++p) {
                ClassResult r;
                r.name = ln.solver->params_.cls(p).name.empty()
                             ? "class" + std::to_string(p)
                             : ln.solver->params_.cls(p).name;
                r.mean_jobs = ln.n[p];
                r.var_jobs =
                    ln.sols[p]->second_moment_level() - ln.n[p] * ln.n[p];
                r.response_time =
                    ln.n[p] / ln.solver->params_.cls(p).arrival_rate();
                r.serving_fraction =
                    ln.procs[p]->serving_time_fraction(*ln.sols[p]);
                r.prob_empty = ln.sols[p]->level_mass(0);
                r.sp_r = ln.sols[p]->spectral_radius_r();
                r.eff_quantum_mean = ln.effq[p].m1;
                r.eff_quantum_atom = ln.effq[p].atom;
                const auto view = ln.procs[p]->arrival_view(*ln.sols[p]);
                r.arrive_immediate = view.prob_immediate;
                r.arrive_wait_slice = view.prob_wait_for_slice;
                r.arrive_queued = view.prob_queued;
                r.mean_slice_wait = view.mean_slice_wait;
                for (std::size_t lvl = 0; lvl < opts.queue_dist_levels; ++lvl)
                  r.queue_dist.push_back(ln.sols[p]->level_mass(lvl));
                report.mean_cycle_length +=
                    ln.effq[p].m1 + ln.solver->params_.cls(p).overhead.mean();
                report.per_class.push_back(std::move(r));
              }
              ln.active = false;
            } else {
              obs::StageTimer fit_timer("gang.batch.effq.fit");
              advance_slices(ln.accel, ln.effq, opts, ln.slices);
            }
          } catch (const NumericalError&) {
            fail(wi, /*retryable=*/true);
          } catch (const Error&) {
            fail(wi, /*retryable=*/false);
          }
        }
      }
    };

    run_lockstep();  // warm slices or the requested initialization

    // The scalar retry ladder, replayed in lock-step so retried lanes
    // stay batched. Rung 1: warm lanes whose warm iteration failed
    // numerically restart cold, as solve_warm falls back to solve().
    bool rerun = false;
    for (std::size_t wi = 0; wi < width; ++wi) {
      Lane& ln = lanes[wi];
      if (!ln.fellback || !ln.retryable || !ln.warm) continue;
      ln.fellback = false;
      reset_lane(ln, ln.solver->initial_slices(ln.solver->options_.init),
                 /*warm=*/false,
                 ln.solver->options_.init == InitMode::kOptimistic);
      obs::count("gang.solve_batch.retry");
      rerun = true;
    }
    if (rerun) run_lockstep();

    // Rung 2: cold heavy-traffic lanes that failed numerically retry the
    // optimistic initialization, exactly as solve() does.
    std::vector<std::uint8_t> optimistic(width, 0);
    rerun = false;
    for (std::size_t wi = 0; wi < width; ++wi) {
      Lane& ln = lanes[wi];
      if (!ln.fellback || !ln.retryable || ln.warm) continue;
      if (ln.solver->options_.init != InitMode::kHeavyTraffic ||
          !ln.solver->options_.fallback_to_optimistic)
        continue;
      ln.fellback = false;
      reset_lane(ln, ln.solver->initial_slices(InitMode::kOptimistic),
                 /*warm=*/false, /*optimistic=*/true);
      optimistic[wi] = 1;
      obs::count("gang.solve_batch.retry");
      rerun = true;
    }
    if (rerun) run_lockstep();

    for (std::size_t wi = 0; wi < width; ++wi) {
      Lane& ln = lanes[wi];
      if (ln.fellback) continue;
      if (optimistic[wi]) ln.report.used_optimistic_init = true;
      BatchOutcome& o = out[idxs[wi]];
      if (ln.warm) ln.report.used_warm_start = true;
      o.report = std::move(ln.report);
      o.batched = true;
    }
    for (std::size_t wi = 0; wi < width; ++wi)
      if (lanes[wi].fellback) out[idxs[wi]].batched = false;
  }

  // Scalar re-runs happen outside the lease scope so they warm the
  // regular per-structure arena entries, not nested throwaways.
  for (std::size_t wi = 0; wi < width; ++wi) {
    BatchOutcome& o = out[idxs[wi]];
    if (o.batched || !o.error.empty()) continue;
    if (!o.report.per_class.empty()) continue;  // already filled
    obs::count("gang.solve_batch.fallback");
    const BatchItem& item = items[idxs[wi]];
    try {
      o.report = item.warm_slices != nullptr
                     ? item.solver->solve_warm(*item.warm_slices)
                     : item.solver->solve();
    } catch (const Error& e) {
      o.error = e.what();
    }
  }
}

std::vector<BatchOutcome> GangSolver::solve_batch(
    const std::vector<BatchItem>& items, std::size_t max_width) {
  std::vector<BatchOutcome> out(items.size());
  if (items.empty()) return out;
  obs::Span span("gang.solve_batch");
  span.arg("items", static_cast<std::int64_t>(items.size()));
  obs::count("gang.solve_batch.count");
  const std::size_t cap =
      std::clamp<std::size_t>(max_width, 1, linalg::kMaxBatchLanes);

  // Group by batch key in first-seen order, then chunk each group to the
  // lane cap. Outcomes land at their item's index, so callers never see
  // the regrouping.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < items.size(); ++i) {
    GS_CHECK(items[i].solver != nullptr, "solve_batch: item without solver");
    const std::uint64_t key = items[i].solver->batch_key();
    const auto [it, fresh] = index.emplace(key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  span.arg("groups", static_cast<std::int64_t>(groups.size()));
  std::vector<std::size_t> chunk;
  for (const auto& group : groups) {
    for (std::size_t start = 0; start < group.size(); start += cap) {
      const std::size_t len = std::min(cap, group.size() - start);
      chunk.assign(group.begin() + static_cast<std::ptrdiff_t>(start),
                   group.begin() + static_cast<std::ptrdiff_t>(start + len));
      run_chunk(items, chunk, out);
    }
  }
  return out;
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
