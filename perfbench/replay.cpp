// Timed replays of layer public functions: the scalar fixed point rebuilt
// from gang/qbd entry points, and the packed batched GEMM kernel peak.
#include <algorithm>
#include <cmath>
#include <optional>

#include "common.hpp"
#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "linalg/batch.hpp"
#include "phase/fitting.hpp"
#include "qbd/solver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using gs::gang::ClassProcess;
using gs::gang::SystemParams;
using gs::phase::PhaseType;

/// Time `fn` into `acc` (ms) and return its result.
template <class F>
auto timed(double& acc, F&& fn) {
  const auto t0 = Clock::now();
  auto out = fn();
  acc += ms_between(t0, Clock::now());
  return out;
}

/// One scenario's fixed point, step for step as GangSolver::solve runs it
/// with default options. Returns false when the chain is unstable under
/// `slices` (the solver then retries the optimistic initialization).
bool replay_fixed_point(const SystemParams& sys, std::vector<PhaseType> slices,
                        ReplayStats& st) {
  const gs::gang::GangSolveOptions opts;
  const std::size_t L = sys.num_classes();
  std::vector<std::optional<ClassProcess>> procs(L);
  std::vector<std::optional<gs::qbd::QbdSolution>> sols(L);
  std::vector<gs::qbd::Workspace> ws(L);
  std::vector<double> prev(L, -1.0), n(L, 0.0);
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    for (std::size_t p = 0; p < L; ++p) {
      PhaseType away = timed(st.away_ms, [&] {
        return gs::gang::away_period(sys, p, slices, &ws[p]);
      });
      timed(st.revalue_ms, [&] {
        if (procs[p])
          procs[p]->update_away(std::move(away));
        else
          procs[p].emplace(sys, p, std::move(away), &ws[p]);
        return 0;
      });
      const gs::qbd::QbdProcess& proc = procs[p]->process();
      if (!proc.drift().stable) return false;
      const auto& b = proc.blocks();
      st.repeating_dim = std::max(st.repeating_dim, b.a1.rows());
      const gs::qbd::RSolveResult rr = timed(st.rsolve_ms, [&] {
        return gs::qbd::solve_r_logreduction(b.a0, b.a1, b.a2,
                                             opts.qbd.r_options, &ws[p]);
      });
      ++st.r_solves;
      st.r_iterations += static_cast<std::uint64_t>(rr.iterations);
      timed(st.boundary_ms, [&] {
        sols[p].emplace(gs::qbd::solve_with_r(proc, rr.r, opts.qbd, &ws[p]));
        return 0;
      });
      n[p] = sols[p]->mean_level();
    }
    ++st.iterations;
    double delta = 0.0;
    for (std::size_t p = 0; p < L; ++p)
      delta = std::max(delta, std::fabs(n[p] - prev[p]));
    prev = n;
    for (std::size_t p = 0; p < L; ++p) {
      const gs::gang::EffectiveQuantum eq = timed(st.effq_ms, [&] {
        return procs[p]->effective_quantum(*sols[p], opts.truncation);
      });
      ++st.effq_calls;
      st.truncation_levels += eq.truncation_levels;
      slices[p] = timed(st.fit_ms,
                        [&] { return eq.fitted(opts.fit_max_order); });
    }
    if (delta < opts.tol) break;
  }
  return true;
}

}  // namespace

ReplayStats replay(const std::vector<SystemParams>& scenarios,
                   std::size_t max_scenarios) {
  ReplayStats st;
  const std::size_t n = std::min(max_scenarios, scenarios.size());
  for (std::size_t k = 0; k < n; ++k) {
    const SystemParams& sys = scenarios[k * scenarios.size() / n];
    std::vector<PhaseType> heavy, optimistic;
    const double atom =
        std::clamp(1.0 - sys.total_utilization(), 0.0, 1.0 - 1e-6);
    for (std::size_t q = 0; q < sys.num_classes(); ++q) {
      heavy.push_back(sys.cls(q).quantum);
      optimistic.push_back(gs::phase::with_atom(sys.cls(q).quantum, atom));
    }
    try {
      if (!replay_fixed_point(sys, heavy, st))
        replay_fixed_point(sys, optimistic, st);
    } catch (const gs::Error&) {
      // An unstable scenario contributes the steps it completed.
    }
  }
  return st;
}

double gemm_peak_gflops(std::size_t d, std::size_t width, std::uint64_t seed) {
  gs::util::Rng rng(seed ^ 0x6a09e667f3bcc909ull);
  gs::linalg::BatchMatrix a, b, out;
  a.ensure(d, d, width);
  b.ensure(d, d, width);
  out.ensure(d, d, width);
  gs::linalg::Matrix m(d, d);
  for (std::size_t lane = 0; lane < width; ++lane) {
    for (gs::linalg::BatchMatrix* x : {&a, &b}) {
      for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = 0; j < d; ++j) m(i, j) = 0.5 + rng.uniform();
      x->load_lane(lane, m);
    }
  }
  const gs::linalg::LaneMask mask(width, true);
  gs::linalg::BatchGemmPackA pa;
  gs::linalg::BatchGemmPackB pb;
  pa.pack(a, mask);
  pb.pack(b);
  const double flops_per_call = 2.0 * static_cast<double>(width) *
                                static_cast<double>(d * d * d);
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double ms = 0.0;
    do {
      gs::linalg::batch_gemm_packed_into(out, pa, pb, mask);
      ++calls;
      ms = ms_between(t0, Clock::now());
    } while (ms < 40.0);
    best = std::max(best, static_cast<double>(calls) * flops_per_call /
                              (ms * 1e6));
  }
  return best;
}

}  // namespace perfbench
