// Microbenchmarks (google-benchmark) of the solver kernels: dense linear
// algebra, phase-type operations, R-matrix algorithms, the per-class QBD
// assembly + solve, the full fixed point, and the simulator's event rate.
#include <benchmark/benchmark.h>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "linalg/gth.hpp"
#include "linalg/lu.hpp"
#include "phase/builders.hpp"
#include "phase/ops.hpp"
#include "phase/uniformization.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solver.hpp"
#include "sim/gang_simulator.hpp"
#include "util/rng.hpp"
#include "workload/paper_configs.hpp"
#include "workload/sweep.hpp"

namespace {

using gs::linalg::Matrix;

Matrix random_dd_matrix(std::size_t n, std::uint64_t seed) {
  gs::util::Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = rng.uniform();
      off += a(i, j);
    }
    a(i, i) = off + 1.0;
  }
  return a;
}

void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dd_matrix(n, 1);
  const Matrix b = random_dd_matrix(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_MatrixMultiply)->Arg(16)->Arg(64)->Arg(128);

// Naive vs cache-blocked matmul across the size range the QBD chains
// actually produce (16-512 states per level). The blocked kernel is the
// one behind operator* and multiply_into; the naive kernel is the
// reference it must match bit for bit (tests/linalg/test_matrix.cpp).
void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dd_matrix(n, 1);
  const Matrix b = random_dd_matrix(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::linalg::multiply_naive(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulNaive)->Arg(16)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dd_matrix(n, 1);
  const Matrix b = random_dd_matrix(n, 2);
  Matrix out;
  for (auto _ : state) {
    gs::linalg::multiply_into(out, a, b);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulBlocked)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dd_matrix(n, 3);
  const gs::linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::linalg::Lu(a).solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_GthStationary(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gs::util::Rng rng(5);
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      q(i, j) = 0.05 + rng.uniform();
      off += q(i, j);
    }
    q(i, i) = -off;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::linalg::gth_stationary(q));
  }
}
BENCHMARK(BM_GthStationary)->Arg(16)->Arg(64)->Arg(128);

void BM_PhaseConvolution(benchmark::State& state) {
  const auto order = static_cast<int>(state.range(0));
  const auto a = gs::phase::erlang(order, 1.0);
  const auto b = gs::phase::erlang(order, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::phase::convolve(a, b));
  }
}
BENCHMARK(BM_PhaseConvolution)->Arg(2)->Arg(8)->Arg(32);

void BM_AwayPeriodAssembly(benchmark::State& state) {
  const auto sys = gs::workload::paper_system({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gang::away_period_heavy_traffic(sys, 0));
  }
}
BENCHMARK(BM_AwayPeriodAssembly);

// The R solve on a Figure 2 class chain (class 0, lambda = 0.4), cold
// (arg 0: every solve from X = 0) and warm (arg 1: the chain against its
// heavy-traffic away period and against the fixed point's, alternately,
// each Newton run starting from the other's X, as the gang fixed point's
// successive iterations do).
void BM_RMatrixNewton(benchmark::State& state) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.4;
  const auto sys = gs::workload::paper_system(knobs);
  const auto report = gs::gang::GangSolver(sys).solve();
  const gs::gang::ClassProcess chains[2] = {
      {sys, 0, gs::gang::away_period_heavy_traffic(sys, 0)},
      {sys, 0, gs::gang::away_period(sys, 0, report.final_slices)}};
  const bool warm = state.range(0) != 0;
  gs::qbd::Workspace ws;
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& blk = chains[k++ % 2].process().blocks();
    ws.warm = ws.warm && warm;
    benchmark::DoNotOptimize(
        gs::qbd::solve_r(blk.a0, blk.a1, blk.a2, {}, &ws));
  }
}
BENCHMARK(BM_RMatrixNewton)->Arg(0)->Arg(1);

// Uniformization on the away-period generator (block bidiagonal).
void BM_UniformizationExpAction(benchmark::State& state) {
  const auto sys = gs::workload::paper_system({});
  const auto away = gs::gang::away_period_heavy_traffic(sys, 0);
  const double t = away.mean();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gs::phase::exp_action(away.alpha(), away.generator(), t));
  }
}
BENCHMARK(BM_UniformizationExpAction);

void BM_ClassChainBuild(benchmark::State& state) {
  const auto sys = gs::workload::paper_system({});
  const auto away = gs::gang::away_period_heavy_traffic(sys, 0);
  for (auto _ : state) {
    gs::gang::ClassProcess cp(sys, 0, away);
    benchmark::DoNotOptimize(cp.process().repeating_size());
  }
}
BENCHMARK(BM_ClassChainBuild);

void BM_ClassChainSolve(benchmark::State& state) {
  const auto sys = gs::workload::paper_system({});
  const gs::gang::ClassProcess cp(
      sys, 0, gs::gang::away_period_heavy_traffic(sys, 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::qbd::solve(cp.process()));
  }
}
BENCHMARK(BM_ClassChainSolve);

void BM_FullFixedPoint(benchmark::State& state) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = state.range(0) / 10.0;
  const auto sys = gs::workload::paper_system(knobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gang::GangSolver(sys).solve());
  }
}
BENCHMARK(BM_FullFixedPoint)->Arg(4)->Arg(9);

// Wall-clock scaling of the parallel execution layer on a 4-class
// Figure-5-style sweep (9 cycle-fraction points, full fixed point each).
// Identical work and bitwise-identical output at every thread count; the
// time/thread ratio IS the recorded speedup. Run with
//   ./micro_kernels --benchmark_filter=BM_Fig5SweepThreads
// and compare real_time across /threads:1 /2 /4 /8.
void BM_Fig5SweepThreads(benchmark::State& state) {
  std::vector<double> fractions;
  for (double f = 0.1; f <= 0.9 + 1e-9; f += 0.1) fractions.push_back(f);
  const auto make = [](double fraction) {
    return gs::workload::figure5_system(0, fraction, 4.0, 2);
  };
  gs::workload::SweepOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  opts.solver.num_threads = opts.num_threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::workload::sweep(fractions, make, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fractions.size()));
}
BENCHMARK(BM_Fig5SweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Scaling of the other two parallel levels in isolation: the L per-class
// chains inside one fixed-point solve, and simulator replications.
void BM_FixedPointThreads(benchmark::State& state) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.8;
  const auto sys = gs::workload::paper_system(knobs);
  gs::gang::GangSolveOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gang::GangSolver(sys, opts).solve());
  }
}
BENCHMARK(BM_FixedPointThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ReplicationsThreads(benchmark::State& state) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.6;
  const auto sys = gs::workload::paper_system(knobs);
  gs::sim::SimConfig cfg;
  cfg.warmup = 100.0;
  cfg.horizon = 2000.0;
  cfg.seed = 7;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::sim::run_replicated(sys, cfg, 8, threads));
  }
}
BENCHMARK(BM_ReplicationsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SimulatorEvents(benchmark::State& state) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = 0.6;
  const auto sys = gs::workload::paper_system(knobs);
  gs::sim::SimConfig cfg;
  cfg.warmup = 100.0;
  cfg.horizon = 5000.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(gs::sim::GangSimulator(sys, cfg).run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.horizon));
}
BENCHMARK(BM_SimulatorEvents)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
