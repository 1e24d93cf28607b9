// heavy_solve: sequential GangSolver::solve on the Figure 3 regime, rho in
// [0.8, 0.95] and quantum mean in [0.2, 6], near the Theorem 4.4 edge. It
// never batches across scenarios; under deep truncation most of its time
// is the scalar effective-quantum refit, the away-period rebuild and the
// PH fit. Whole passes over the scenario set repeat until the run's time
// is up; every pass after the first must reproduce the first bit for bit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>

#include "common.hpp"
#include "gang/solver.hpp"
#include "util/rng.hpp"
#include "workload/paper_configs.hpp"

namespace perfbench {

namespace {

constexpr int kRhoNodes = 4;
constexpr int kQuantumNodes = 5;
constexpr double kRhoLo = 0.8, kRhoHi = 0.95;
constexpr double kQuantumLo = 0.2, kQuantumHi = 6.0;

/// A 4 x 5 lattice over the regime. Each node moves by a seeded offset of
/// up to a hundredth of the spacing per axis, clamped to the regime; the
/// four corners stay put, so every seed's set spans the regime, including
/// its slowest solve (rho = 0.95, quantum 0.2). Solve cost is steep near
/// the stability edge, so a wider offset would make the solve times, and
/// with them every metric, depend on the seed as well as on the code.
std::vector<gs::gang::SystemParams> scenarios(std::uint64_t seed) {
  gs::util::Rng rng(seed ^ 0x3c6ef372fe94f82bull);
  const double dr = (kRhoHi - kRhoLo) / (kRhoNodes - 1);
  const double dq = (kQuantumHi - kQuantumLo) / (kQuantumNodes - 1);
  std::vector<gs::gang::SystemParams> out;
  for (int i = 0; i < kRhoNodes; ++i) {
    for (int j = 0; j < kQuantumNodes; ++j) {
      double rho = kRhoLo + dr * i, q = kQuantumLo + dq * j;
      const double jr = (rng.uniform() - 0.5) * 0.02 * dr;
      const double jq = (rng.uniform() - 0.5) * 0.02 * dq;
      const bool corner = (i == 0 || i == kRhoNodes - 1) &&
                          (j == 0 || j == kQuantumNodes - 1);
      if (!corner) {
        rho = std::clamp(rho + jr, kRhoLo, kRhoHi);
        q = std::clamp(q + jq, kQuantumLo, kQuantumHi);
      }
      gs::workload::PaperKnobs knobs;
      knobs.arrival_rate = rho;  // every class at lambda gives rho = lambda
      knobs.quantum_mean = q;
      out.push_back(gs::workload::paper_system(knobs));
    }
  }
  // Seeded order, fixed for the run.
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.uniform_int(i)]);
  return out;
}

struct Outcome {
  std::vector<double> n;
  int iterations = 0;
  bool converged = false;
  double delta = 0;
  std::string error;
  bool plausible = true;  ///< finite, positive N_p obeying Little's law

  bool operator==(const Outcome& o) const {
    return n.size() == o.n.size() &&
           std::memcmp(n.data(), o.n.data(), n.size() * sizeof(double)) ==
               0 &&
           iterations == o.iterations && converged == o.converged &&
           std::memcmp(&delta, &o.delta, sizeof delta) == 0 &&
           error == o.error;
  }
};

Outcome solve(const gs::gang::SystemParams& sys) {
  Outcome o;
  try {
    const gs::gang::SolveReport rep = gs::gang::GangSolver(sys).solve();
    for (std::size_t p = 0; p < rep.per_class.size(); ++p) {
      const auto& c = rep.per_class[p];
      o.n.push_back(c.mean_jobs);
      const double lambda = sys.cls(p).arrival_rate();
      if (!std::isfinite(c.mean_jobs) || c.mean_jobs <= 0 ||
          std::fabs(c.response_time * lambda - c.mean_jobs) >
              1e-9 * c.mean_jobs)
        o.plausible = false;
    }
    o.iterations = rep.iterations;
    o.converged = rep.converged;
    o.delta = rep.final_delta;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

/// One host probe piece per this many ms; a solve takes 60-450 ms.
constexpr double kProbePeriodMs = 25;

struct SolvePass {
  /// [scenario][pass], at the reference host speed (HostProbe).
  std::vector<std::vector<double>> solve_ms;
  std::vector<double> pass_ms;
  double span_ms = 0;  ///< sum of the spans around each solve call
  double ref_span_ms = 0;  ///< the same at the reference host speed
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
  std::uint64_t failed = 0;  ///< unconverged or failed solves

  /// Each scenario's median solve time over the passes: one steal-time
  /// burst on a shared host moves a single pass, not the median.
  std::vector<double> typical_ms() const {
    std::vector<double> out;
    for (const auto& s : solve_ms) out.push_back(median(s));
    return out;
  }
};

SolvePass run_passes(const std::vector<gs::gang::SystemParams>& set,
                     double seconds, std::vector<Outcome>& first,
                     Result& r) {
  SolvePass pass;
  pass.solve_ms.resize(set.size());
  HostProbe probe(kProbePeriodMs);
  const auto start = Clock::now();
  do {
    const auto pass_start = Clock::now();
    const bool record = first.empty();
    for (std::size_t i = 0; i < set.size(); ++i) {
      const HostProbe::Tally before = probe.tally();
      const auto t0 = Clock::now();
      Outcome o = solve(set[i]);
      const double ms = ms_between(t0, Clock::now());
      const double ref_ms =
          ms * HostProbe::to_reference(before, probe.tally());
      pass.solve_ms[i].push_back(ref_ms);
      pass.span_ms += ms;
      pass.ref_span_ms += ref_ms;
      ++pass.solves;
      pass.iterations += static_cast<std::uint64_t>(o.iterations);
      if (!o.converged || !o.error.empty()) ++pass.failed;
      if (!o.plausible)
        r.problem("heavy_solve: implausible answer on scenario " +
                  std::to_string(i));
      if (record) {
        first.push_back(std::move(o));
      } else if (!(o == first[i])) {
        r.problem("heavy_solve: repeated solve differs on scenario " +
                  std::to_string(i));
      }
    }
    pass.pass_ms.push_back(ms_between(pass_start, Clock::now()));
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  return pass;
}

}  // namespace

Result run_heavy_solve(const Args& args) {
  Result r;
  std::vector<gs::gang::SystemParams> set;
  const double setup_s = median_setup_s(5, [&] {
    set = scenarios(args.seed);
    gs::workload::PaperKnobs knobs;
    knobs.arrival_rate = kRhoLo;
    knobs.quantum_mean = kQuantumLo;
    solve(gs::workload::paper_system(knobs));  // warm the arenas
  });

  std::vector<Outcome> first;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const SolvePass untraced = run_passes(set, untraced_s, first, r);
  const double rss_mb = peak_rss_mb();
  SolvePass traced;
  Trace trace;
  if (args.trace) {
    obs_enable(true);
    traced = run_passes(set, args.seconds / 2, first, r);
    trace = Trace::capture();
    obs_enable(false);
  }

  r.attempted = untraced.solves;
  r.failed = untraced.failed;
  std::uint64_t unconverged = 0;
  for (const Outcome& o : first)
    if (!o.converged || !o.error.empty()) ++unconverged;
  std::cerr << "heavy_solve: " << r.attempted << " solves over "
            << set.size() << " scenarios, " << unconverged
            << " unconverged; pass ms:";
  for (const double ms : untraced.pass_ms) std::cerr << " " << ms;
  std::cerr << "\n";

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    const std::vector<double> typical = untraced.typical_ms();
    double pass_ms = 0;
    for (const double ms : typical) pass_ms += ms;
    e.points_per_s = static_cast<double>(set.size()) / (pass_ms / 1000.0);
    e.solve_ms_p50 = median(typical);
    e.latency_ms_p50 = e.solve_ms_p50;
    e.latency_ms_p99 = percentile(typical, 0.99);
    e.peak_rss_mb = rss_mb;
    emit_end_to_end(r, e);
    return r;
  }

  const ReplayStats rep = replay(set, set.size());
  Layers l;
  const double ops = static_cast<double>(traced.solves);
  l.fp_iterations = static_cast<double>(traced.iterations) / ops;
  l.unconverged = static_cast<double>(unconverged);
  SolverPass pass;
  pass.ops = ops;
  pass.wall_ms = traced.span_ms;
  pass.iterations = traced.iterations;
  fill_solver_layers(l, trace, rep, pass, args.seed);
  l.overhead_share = (traced.span_ms / ops) /
                     (untraced.span_ms /
                      static_cast<double>(untraced.solves));
  emit_layers(r, l);
  return r;
}

}  // namespace perfbench
