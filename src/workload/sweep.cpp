#include "workload/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "linalg/batch.hpp"
#include "obs/obs.hpp"
#include "sim/gang_simulator.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace gs::workload {

namespace {

// Simulate one x-point into its output row (no-op unless requested).
void simulate_point(SweepPoint& point, const gang::SystemParams& sys,
                    const SweepOptions& opts) {
  if (opts.sim_horizon <= 0.0) return;
  sim::SimConfig cfg;
  cfg.warmup = opts.sim_warmup;
  cfg.horizon = opts.sim_horizon;
  cfg.seed = opts.sim_seed;
  const sim::SimResult sr = sim::run_replicated(
      sys, cfg, opts.sim_replications,
      static_cast<std::size_t>(std::max(1, opts.num_threads)));
  for (const auto& s : sr.per_class) point.sim_n.push_back(s.mean_jobs);
}

// Solve one x-point into its output row. `seed` (when non-null) is an
// anchor's final_slices: the fixed point starts there instead of the
// Theorem-4.1 initialization, falling back cold on instability. Returns
// the report's final slices when `keep_slices` (anchors need them).
std::vector<gang::PhaseType> solve_point(
    SweepPoint& point, double x,
    const std::function<gang::SystemParams(double)>& make_system,
    const SweepOptions& opts, const std::vector<gang::PhaseType>* seed,
    bool keep_slices) {
  point.x = x;
  obs::count("sweep.points");
  std::vector<gang::PhaseType> slices;
  const gang::SystemParams sys = make_system(x);
  try {
    const gang::GangSolver solver(sys, opts.solver);
    const gang::SolveReport rep =
        seed != nullptr ? solver.solve_warm(*seed) : solver.solve();
    point.iterations = rep.iterations;
    point.converged = rep.converged;
    point.warm_started = rep.used_warm_start;
    if (point.warm_started) obs::count("sweep.warm_started");
    for (const auto& r : rep.per_class) point.model_n.push_back(r.mean_jobs);
    if (keep_slices) slices = rep.final_slices;
  } catch (const Error& e) {
    obs::count("sweep.errors");
    point.error = e.what();
  }
  simulate_point(point, sys, opts);
  return slices;
}

// Batched dispatch for a wave of points: group the wave by batch key
// (first-seen order), chunk each group to batch_width, and run the
// chunks' lock-step solves across the pool — every chunk owns disjoint
// output rows. Row contents are bitwise identical to calling solve_point
// per index (the solve_batch contract); only the dispatch shape differs.
// seeds[t] (when the wave has seeds) is index t's warm start, exactly as
// solve_point's `seed`. Fills slices_out[t] when non-null (anchors).
void solve_wave_batched(
    const std::vector<std::size_t>& idx, std::vector<SweepPoint>& out,
    const std::vector<double>& xs,
    const std::function<gang::SystemParams(double)>& make_system,
    const SweepOptions& opts, util::ThreadPool& pool,
    const util::ParallelOptions& lanes,
    const std::vector<const std::vector<gang::PhaseType>*>& seeds,
    std::vector<std::vector<gang::PhaseType>>* slices_out) {
  // Scenario construction stays sequential (it is cheap next to a solve)
  // so make_system never needs to be re-entrant below num_threads == 1.
  std::vector<gang::SystemParams> systems;
  systems.reserve(idx.size());
  for (const std::size_t i : idx) systems.push_back(make_system(xs[i]));
  std::vector<gang::GangSolver> solvers;
  solvers.reserve(idx.size());
  for (gang::SystemParams& sys : systems)
    solvers.emplace_back(sys, opts.solver);

  // The chunk plan is a pure function of the wave's batch keys in wave
  // order — never of thread count — so batched sweeps stay deterministic.
  const std::size_t width =
      std::min(opts.batch_width, linalg::kMaxBatchLanes);
  std::vector<std::vector<std::size_t>> chunks;  // positions into idx
  std::unordered_map<std::uint64_t, std::size_t> open;  // key -> chunk
  for (std::size_t t = 0; t < idx.size(); ++t) {
    const std::uint64_t key = solvers[t].batch_key();
    const auto it = open.find(key);
    if (it == open.end() || chunks[it->second].size() >= width) {
      open[key] = chunks.size();
      chunks.emplace_back();
      chunks.back().push_back(t);
    } else {
      chunks[it->second].push_back(t);
    }
  }

  pool.parallel_for(chunks.size(), [&](std::size_t c) {
    std::vector<gang::BatchItem> items;
    items.reserve(chunks[c].size());
    for (const std::size_t t : chunks[c])
      items.push_back({&solvers[t], seeds.empty() ? nullptr : seeds[t]});
    const std::vector<gang::BatchOutcome> got =
        gang::GangSolver::solve_batch(items, width);
    for (std::size_t j = 0; j < chunks[c].size(); ++j) {
      const std::size_t t = chunks[c][j];
      SweepPoint& point = out[idx[t]];
      point.x = xs[idx[t]];
      obs::count("sweep.points");
      if (got[j].batched) obs::count("sweep.batched");
      if (!got[j].error.empty()) {
        obs::count("sweep.errors");
        point.error = got[j].error;
        continue;
      }
      const gang::SolveReport& rep = got[j].report;
      point.iterations = rep.iterations;
      point.converged = rep.converged;
      point.warm_started = rep.used_warm_start;
      if (point.warm_started) obs::count("sweep.warm_started");
      for (const auto& r : rep.per_class)
        point.model_n.push_back(r.mean_jobs);
      if (slices_out != nullptr) (*slices_out)[t] = rep.final_slices;
    }
  }, lanes);

  if (opts.sim_horizon > 0.0) {
    pool.parallel_for(idx.size(), [&](std::size_t t) {
      simulate_point(out[idx[t]], systems[t], opts);
    }, lanes);
  }
}

}  // namespace

std::vector<SweepPoint> sweep(
    const std::vector<double>& xs,
    const std::function<gang::SystemParams(double)>& make_system,
    const SweepOptions& opts) {
  std::vector<SweepPoint> out(xs.size());
  obs::Span span("sweep.run");
  span.arg("points", static_cast<std::int64_t>(xs.size()));
  util::ThreadPool& pool =
      opts.pool != nullptr ? *opts.pool : util::ThreadPool::shared();
  const util::ParallelOptions lanes{
      static_cast<std::size_t>(std::max(1, opts.num_threads)), /*grain=*/1};

  const bool batched = opts.batch_width > 1;
  span.arg("batched", static_cast<std::int64_t>(batched));
  const std::size_t stride = std::max<std::size_t>(2, opts.chain_stride);
  if (!opts.warm_chain || xs.size() <= 2) {
    // Cold sweep: each task owns exactly one output row; errors stay
    // per-point, so one unstable x never disturbs its neighbours (the
    // paper's sweeps cross stability boundaries on purpose).
    span.arg("mode", "cold");
    if (batched) {
      std::vector<std::size_t> all(xs.size());
      for (std::size_t i = 0; i < xs.size(); ++i) all[i] = i;
      solve_wave_batched(all, out, xs, make_system, opts, pool, lanes,
                         /*seeds=*/{}, /*slices_out=*/nullptr);
      return out;
    }
    pool.parallel_for(xs.size(), [&](std::size_t i) {
      solve_point(out[i], xs[i], make_system, opts, nullptr,
                  /*keep_slices=*/false);
    }, lanes);
    return out;
  }

  // Warm-chained sweep, two waves with a plan fixed by (xs.size(),
  // stride) alone. Wave 1: anchors at indices 0, stride, 2*stride, ...
  // solve cold and keep their final slices. Wave 2: every other point
  // seeds from its nearest anchor (tie -> lower index). Both waves fan
  // out across the pool; no task ever reads a row another task writes.
  const std::size_t n = xs.size();
  const std::size_t num_anchors = (n + stride - 1) / stride;
  span.arg("mode", "warm_chain");
  span.arg("anchors", static_cast<std::int64_t>(num_anchors));
  obs::count("sweep.anchors", num_anchors);
  obs::count("sweep.fills", n - num_anchors);
  std::vector<std::vector<gang::PhaseType>> anchor_slices(num_anchors);
  if (batched) {
    std::vector<std::size_t> anchors(num_anchors);
    for (std::size_t k = 0; k < num_anchors; ++k) anchors[k] = k * stride;
    solve_wave_batched(anchors, out, xs, make_system, opts, pool, lanes,
                       /*seeds=*/{}, &anchor_slices);
  } else {
    pool.parallel_for(num_anchors, [&](std::size_t k) {
      const std::size_t i = k * stride;
      anchor_slices[k] = solve_point(out[i], xs[i], make_system, opts,
                                     nullptr, /*keep_slices=*/true);
    }, lanes);
  }

  std::vector<std::size_t> fill;
  fill.reserve(n - num_anchors);
  for (std::size_t i = 0; i < n; ++i)
    if (i % stride != 0) fill.push_back(i);
  // Nearest anchor by index distance; the tie at exactly stride/2 (and a
  // missing anchor past the end) goes to the earlier one. An anchor that
  // failed (unstable x) has no slices; its neighbours solve cold,
  // exactly as the cold sweep would.
  const auto seed_for = [&](std::size_t i) -> const std::vector<gang::PhaseType>* {
    const std::size_t before = i / stride;
    const std::size_t after = before + 1;
    std::size_t k = before;
    if (after < num_anchors && (after * stride - i) < (i - before * stride))
      k = after;
    return anchor_slices[k].empty() ? nullptr : &anchor_slices[k];
  };
  if (batched) {
    std::vector<const std::vector<gang::PhaseType>*> seeds(fill.size());
    for (std::size_t t = 0; t < fill.size(); ++t) seeds[t] = seed_for(fill[t]);
    solve_wave_batched(fill, out, xs, make_system, opts, pool, lanes, seeds,
                       /*slices_out=*/nullptr);
    return out;
  }
  pool.parallel_for(fill.size(), [&](std::size_t t) {
    const std::size_t i = fill[t];
    solve_point(out[i], xs[i], make_system, opts, seed_for(i),
                /*keep_slices=*/false);
  }, lanes);
  return out;
}

util::Table sweep_table(const std::string& x_name,
                        const std::vector<SweepPoint>& points,
                        std::size_t num_classes) {
  const bool with_sim =
      !points.empty() && !points.front().sim_n.empty();
  std::vector<std::string> headers = {x_name};
  for (std::size_t p = 0; p < num_classes; ++p)
    headers.push_back("N" + std::to_string(p));
  if (with_sim) {
    for (std::size_t p = 0; p < num_classes; ++p)
      headers.push_back("sim_N" + std::to_string(p));
  }
  headers.push_back("note");

  util::Table table(std::move(headers));
  for (const auto& pt : points) {
    std::vector<util::Cell> row;
    row.emplace_back(pt.x);
    if (pt.model_n.empty()) {
      for (std::size_t p = 0; p < num_classes; ++p)
        row.emplace_back(std::string("-"));
    } else {
      for (double n : pt.model_n) row.emplace_back(n);
    }
    if (with_sim) {
      if (pt.sim_n.empty()) {
        for (std::size_t p = 0; p < num_classes; ++p)
          row.emplace_back(std::string("-"));
      } else {
        for (double n : pt.sim_n) row.emplace_back(n);
      }
    }
    row.emplace_back(pt.error.empty() ? std::string("")
                                      : std::string("unstable"));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace gs::workload
