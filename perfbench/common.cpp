#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "json/json.hpp"

namespace perfbench {

using gs::json::Json;

std::string Result::json_line() const {
  Json m = Json::object();
  for (const Metric& x : metrics) {
    Json v = Json::object();
    v.set("value", std::isfinite(x.value) ? x.value : 0.0);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  Json out = Json::object();
  out.set("correct", correct());
  out.set("attempted", static_cast<std::int64_t>(attempted));
  out.set("failed", static_cast<std::int64_t>(failed));
  out.set("metrics", std::move(m));
  return out.dump();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median_setup_s(int reps, const std::function<void()>& setup,
                      const std::function<void()>& teardown) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    if (i > 0 && teardown) teardown();
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(std::move(s));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One piece of fixed dense work on 48 x 48 doubles, the order of the
/// solver's repeating blocks: a GEMM and an LU elimination with its
/// divisions. Returns its wall ms. The operands start from a volatile so
/// nothing folds at compile time.
double reference_piece_ms() {
  constexpr int n = 48;
  static volatile double seed = 1.0;
  static std::vector<double> a(n * n), b(n * n), c(n * n);
  const auto t0 = Clock::now();
  double sink = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    const double s = seed + rep * 1e-3;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        a[i * n + j] = (i == j ? n : 0.0) + s / (1.0 + i + 2 * j);
        b[i * n + j] = s / (1.0 + 2 * i + j);
        c[i * n + j] = 0.0;
      }
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const double x = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
      }
    for (int k = 0; k < n; ++k)
      for (int i = k + 1; i < n; ++i) {
        const double f = c[i * n + k] / (c[k * n + k] + a[k * n + k]);
        for (int j = k; j < n; ++j) c[i * n + j] -= f * a[k * n + j];
      }
    sink += c[n * n - 1];
  }
  seed = seed + (sink == 0.0 ? 1.0 : 0.0);
  return ms_between(t0, Clock::now());
}

}  // namespace

HostProbe::HostProbe(double period_ms) {
  restore_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  // Started after the pin, so the probe inherits the caller's vCPU.
  thread_ = std::thread([this, period_ms] { loop(period_ms); });
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  if (restore_) sched_setaffinity(0, sizeof saved_, &saved_);
}

void HostProbe::loop(double period_ms) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(period_ms));
  auto next = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const double ms = reference_piece_ms();
    lock.lock();
    tally_.ms += ms;
    ++tally_.pieces;
    next += period;
    cv_.wait_until(lock, next, [this] { return stop_; });
  }
}

HostProbe::Tally HostProbe::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

double HostProbe::to_reference(const Tally& from, const Tally& to) {
  const std::uint64_t n = to.pieces - from.pieces;
  return n > 0 ? kReferencePieceMs * static_cast<double>(n) / (to.ms - from.ms)
               : 1.0;
}

void obs_enable(bool on) {
  gs::obs::configure(gs::obs::ObsOptions{on, on});
  gs::obs::reset();
}

// ------------------------------------------------------------ traced pass

Trace Trace::capture() {
  Trace t;
  t.snap = gs::obs::snapshot();
  t.events = gs::obs::trace_events();
  t.parent.assign(t.events.size(), -1);
  // Per thread, in start order with the longer (enclosing) span first, a
  // stack of open spans gives each event its innermost enclosing one.
  std::vector<std::size_t> order(t.events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = t.events[a];
    const auto& y = t.events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const auto& e = t.events[i];
    if (open.empty() || e.tid != tid) {
      open.clear();
      tid = e.tid;
    }
    while (!open.empty()) {
      const auto& top = t.events[open.back()];
      if (top.start_ns + top.dur_ns > e.start_ns) break;
      open.pop_back();
    }
    if (!open.empty()) t.parent[i] = static_cast<long>(open.back());
    open.push_back(i);
  }
  return t;
}

double Trace::timer_ms(const std::string& name) const {
  const gs::obs::TimerValue* v = snap.timer(name);
  return v != nullptr ? static_cast<double>(v->total_ns) / 1e6 : 0.0;
}

std::uint64_t Trace::counter(const std::string& name) const {
  return snap.counter_value(name);
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_class_solve(const std::string& n) {
  return n == "gang.class_solve_grouped" || n == "gang.class_solve";
}

}  // namespace

StageTimes stage_times(const Trace& t) {
  StageTimes s;
  const auto ms = [](const gs::obs::TraceEvent& e) {
    return static_cast<double>(e.dur_ns) / 1e6;
  };
  const auto under_class_solve = [&t](std::size_t i) {
    for (long p = t.parent[i]; p >= 0; p = t.parent[static_cast<std::size_t>(p)])
      if (is_class_solve(t.events[static_cast<std::size_t>(p)].name))
        return true;
    return false;
  };
  std::vector<double> rsolve_child_ms(t.events.size(), 0.0);
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const auto& e = t.events[i];
    const long p = t.parent[i];
    const bool parent_is_rsolve =
        p >= 0 && starts_with(t.events[static_cast<std::size_t>(p)].name,
                              "qbd.rsolve.");
    if (e.name == "gang.batch.revalue") {
      s.revalue_b += ms(e);
    } else if (e.name == "gang.batch.boundary") {
      s.boundary_b += ms(e);
    } else if (e.name == "gang.batch.effq") {
      s.effq_b += ms(e);
    } else if (is_class_solve(e.name)) {
      s.class_solve_s += ms(e);
    } else if (e.name == "gang.iteration") {
      ++s.scalar_iterations;
    } else if (e.name == "serve.request") {
      s.serve_request += ms(e);
    } else if (starts_with(e.name, "qbd.rsolve.") && !parent_is_rsolve) {
      // A Newton solve's log-reduction fallback nests inside it; count
      // the outer span once.
      if (under_class_solve(i))
        s.rsolve_s += ms(e);
      else
        s.rsolve_b += ms(e);
      if (p >= 0) rsolve_child_ms[static_cast<std::size_t>(p)] += ms(e);
    }
  }
  // qbd.solve is the boundary stage when the grouped path ran R in
  // lock-step, and R + boundary on the per-class scalar path.
  for (std::size_t i = 0; i < t.events.size(); ++i)
    if (t.events[i].name == "qbd.solve" && under_class_solve(i))
      s.boundary_s += ms(t.events[i]) - rsolve_child_ms[i];
  s.fit_b = t.timer_ms("gang.batch.effq.fit");
  return s;
}

// --------------------------------------------------------- metric sets

void emit_end_to_end(Result& r, const EndToEnd& e) {
  r.add("setup_s", e.setup_s, "s");
  r.add("points_per_s", e.points_per_s, "1/s");
  r.add("solve_ms_p50", e.solve_ms_p50, "ms");
  r.add("latency_ms_p50", e.latency_ms_p50, "ms");
  r.add("latency_ms_p99", e.latency_ms_p99, "ms");
  const double fail_share =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  r.add("ok_share", 1.0 - fail_share, "share");
  r.add("peak_rss_mb", e.peak_rss_mb, "MB");
}

void fill_solver_layers(Layers& l, const Trace& t, const ReplayStats& rep,
                        const SolverPass& pass, std::uint64_t seed) {
  const StageTimes st = stage_times(t);
  const double ops = std::max(1.0, pass.ops);
  const double scalar_iters = static_cast<double>(st.scalar_iterations);
  // Scalar effective-quantum refit and PH fit run under gang.iteration
  // with no timer of their own: replayed cost per iteration x the run's
  // scalar iterations. The away-period build runs on both paths.
  const double est_effq = rep.per_iteration(rep.effq_ms) * scalar_iters;
  const double est_fit = rep.per_iteration(rep.fit_ms) * scalar_iters;
  const double est_away = rep.per_iteration(rep.away_ms) *
                          static_cast<double>(pass.iterations);

  l.boundary_ms = (st.boundary_b + st.boundary_s) / ops;
  // Both measured revalue stages (gang.batch.revalue, and the rest of the
  // scalar per-class stage) also rebuild the away period; its replayed
  // estimate is taken out so that work is reported once, as away_ms.
  l.revalue_ms =
      std::max(0.0, st.revalue_b + st.class_solve_s - st.rsolve_s -
                        st.boundary_s - est_away) /
      ops;
  l.effq_ms = (st.effq_b + est_effq) / ops;
  l.fit_ms = (st.fit_b + est_fit) / ops;
  l.away_ms = est_away / ops;
  const double attributed = st.revalue_b + st.rsolve_b + st.boundary_b +
                            st.effq_b + st.fit_b + st.class_solve_s +
                            est_effq + est_fit;
  l.unattributed_share =
      pass.wall_ms > 0 ? std::max(0.0, 1.0 - attributed / pass.wall_ms) : 0.0;
  l.replayed_share = attributed > 0 ? (est_effq + est_fit) / attributed : 0.0;

  l.rsolve_ms = (st.rsolve_b + st.rsolve_s) / ops;
  l.rsolve_iterations =
      rep.r_solves > 0 ? static_cast<double>(rep.r_iterations) /
                             static_cast<double>(rep.r_solves)
                       : 0.0;
  l.boundary_lu_ms = t.timer_ms("qbd.batch.boundary.lu") / ops;
  l.truncation_levels =
      rep.effq_calls > 0 ? static_cast<double>(rep.truncation_levels) /
                               static_cast<double>(rep.effq_calls)
                         : 0.0;

  const double scalar_flops =
      static_cast<double>(t.counter("linalg.gemm.flops"));
  const double batch_flops =
      static_cast<double>(t.counter("linalg.batch_gemm.flops"));
  l.gemm_flops = (scalar_flops + batch_flops) / ops;
  // Every batched GEMM runs inside a qbd.batch.gemm stage timer.
  const double gemm_ms = t.timer_ms("qbd.batch.gemm");
  l.gemm_gflops = gemm_ms > 0 ? batch_flops / (gemm_ms * 1e6) : 0.0;
  const std::size_t d = std::max<std::size_t>(rep.repeating_dim, 1);
  l.gemm_peak_gflops = gemm_peak_gflops(d, 8, seed);
  // Computed, not measured: a d x d GEMM reads two operands and writes
  // one (3 d^2 doubles) per 2 d^3 flops.
  l.gemm_bytes = l.gemm_flops * 12.0 / static_cast<double>(d);
  l.trsm_ms =
      (t.timer_ms("qbd.batch.trsm") + t.timer_ms("qbd.batch.boundary.trsm")) /
      ops;
  l.lu_ms =
      (t.timer_ms("qbd.batch.lu") + t.timer_ms("qbd.batch.boundary.lu")) / ops;
}

void emit_layers(Result& r, const Layers& l) {
  r.add("workload.batched_share", l.batched_share, "share");
  r.add("gang.fp_iterations", l.fp_iterations, "count");
  r.add("gang.unconverged", l.unconverged, "count");
  r.add("gang.boundary_ms", l.boundary_ms, "ms/op");
  r.add("gang.revalue_ms", l.revalue_ms, "ms/op");
  r.add("gang.effq_ms", l.effq_ms, "ms/op");
  r.add("gang.fit_ms", l.fit_ms, "ms/op");
  r.add("gang.away_ms", l.away_ms, "ms/op");
  r.add("gang.unattributed_share", l.unattributed_share, "share");
  r.add("gang.replayed_share", l.replayed_share, "share");
  r.add("qbd.rsolve_ms", l.rsolve_ms, "ms/op");
  r.add("qbd.rsolve_iterations", l.rsolve_iterations, "count");
  r.add("qbd.boundary_lu_ms", l.boundary_lu_ms, "ms/op");
  r.add("qbd.truncation_levels", l.truncation_levels, "count");
  r.add("linalg.gemm_flops", l.gemm_flops, "count");
  r.add("linalg.gemm_gflops", l.gemm_gflops, "GFLOP/s");
  r.add("linalg.gemm_peak_gflops", l.gemm_peak_gflops, "GFLOP/s");
  r.add("linalg.gemm_bytes_computed", l.gemm_bytes, "B/op");
  r.add("linalg.trsm_ms", l.trsm_ms, "ms/op");
  r.add("linalg.lu_ms", l.lu_ms, "ms/op");
  r.add("serve.hit_share", l.hit_share, "share");
  r.add("serve.handle_ms_p50.hit", l.handle_hit_ms, "ms");
  r.add("serve.coalesced_share", l.coalesced_share, "share");
  r.add("serve.warm_share", l.warm_share, "share");
  r.add("serve.handle_ms_p50.miss", l.handle_miss_ms, "ms");
  r.add("serve.handle_ms_p50.sweep", l.handle_sweep_ms, "ms");
  r.add("serve.worker_util", l.worker_util, "share");
  r.add("net.wait_ms_p50", l.wait_ms_p50, "ms");
  r.add("net.shed", l.shed, "count");
  r.add("gen.late_ms_max", l.late_ms_max, "ms");
  static const char* kOps[4] = {"hit", "miss", "batch", "sweep"};
  for (int k = 0; k < 4; ++k) {
    r.add(std::string("op.latency_ms_p50.") + kOps[k], l.op_p50[k], "ms");
    r.add(std::string("op.latency_ms_p99.") + kOps[k], l.op_p99[k], "ms");
  }
  r.add("obs.overhead_share", l.overhead_share, "share");
  r.add("host.slowdown", l.host_slowdown, "x");
}

}  // namespace perfbench
