#include "workload/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

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

  const std::size_t stride = std::max<std::size_t>(1, opts.chain_stride);
  if (!opts.warm_chain || xs.size() <= 2) {
    // Cold sweep: each task owns exactly one output row; errors stay
    // per-point, so one unstable x never disturbs its neighbours (the
    // paper's sweeps cross stability boundaries on purpose).
    span.arg("mode", "cold");
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
  pool.parallel_for(num_anchors, [&](std::size_t k) {
    const std::size_t i = k * stride;
    anchor_slices[k] = solve_point(out[i], xs[i], make_system, opts, nullptr,
                                   /*keep_slices=*/true);
  }, lanes);

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
