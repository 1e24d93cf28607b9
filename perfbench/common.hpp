// Shared machinery of the perfbench workloads: run arguments, the result
// line, timing and percentile helpers, the obs span tree of a traced pass,
// the replay of layer public functions, and the fixed per-layer metric set
// every workload reports.
#pragma once

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gang/params.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// gangd_open's offered load in requests/s; 0 keeps the workload's
  /// fixed rate. Set only to probe the daemon's saturation point.
  double rate = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the operation counts, the metrics, and any output
/// check that failed. Printed as the run's final JSON line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output checks that failed (a wrong answer, a non-reproducible row, a
  /// protocol error). Any entry makes the run incorrect.
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void problem(const std::string& what) { problems.push_back(what); }
  bool correct() const { return problems.empty(); }
  std::string json_line() const;
};

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples; 0
/// for an empty set.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Run `setup` `reps` times and return the median wall seconds. When
/// given, `teardown` undoes a set-up between repetitions, untimed; the
/// last set-up is kept.
double median_setup_s(int reps, const std::function<void()>& setup,
                      const std::function<void()>& teardown = nullptr);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// How fast the vCPU the measured thread runs on executes a fixed dense
/// loop written here, independent of the library. On a shared host each
/// vCPU switches between a fast state and one ~1.5x slower every second or
/// so, and the mix drifts over minutes, which moved a run's median sweep
/// by up to 1.45x. The loop slows with the solver (log-log slope 0.84,
/// correlation 0.95 over 944 paired samples on one vCPU), so a single-
/// threaded workload pins itself and a probe thread to one vCPU, runs one
/// loop piece every few ms, and scales each timed call by the pieces'
/// mean speed over that call.
class HostProbe {
 public:
  /// A piece's mean time, interleaved with the Figure 2 sweep on one vCPU
  /// of a 4-core x86-64 host (Intel Xeon, -O3, no -march) in its fast
  /// state, so that reported times read close to that host's wall times.
  static constexpr double kReferencePieceMs = 1.6;

  /// Pin the calling thread to its current vCPU and start a thread there
  /// that runs one reference piece every `period_ms`. The destructor
  /// stops the thread and restores the caller's affinity.
  explicit HostProbe(double period_ms);
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Pieces run so far and their summed wall ms.
  struct Tally {
    std::uint64_t pieces = 0;
    double ms = 0.0;
  };
  Tally tally() const;
  /// Factor taking a wall time measured between two tallies to the
  /// reference host's speed: kReferencePieceMs / mean piece ms (1 when
  /// no piece ran).
  static double to_reference(const Tally& from, const Tally& to);

 private:
  void loop(double period_ms);

  cpu_set_t saved_;  ///< the caller's affinity before the pin
  bool restore_ = false;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  Tally tally_;
  std::thread thread_;
};

/// Metrics on (traced pass) or off, with every recorded value dropped.
void obs_enable(bool on);

// ------------------------------------------------------------ traced pass

/// What a traced pass recorded: the obs metric snapshot and the span tree
/// (each trace event with the index of its innermost enclosing event on
/// the same thread, or -1).
struct Trace {
  gs::obs::Snapshot snap;
  std::vector<gs::obs::TraceEvent> events;
  std::vector<long> parent;

  /// Snapshot the registry and build the span tree.
  static Trace capture();
  double timer_ms(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;
};

/// Disjoint stage times of a traced pass, in ms, read from the span tree.
/// Lock-step (batched) stages sit under gang.solve_batch.chunk; scalar
/// ones under gang.iteration.
struct StageTimes {
  double revalue_b = 0, rsolve_b = 0, boundary_b = 0, effq_b = 0, fit_b = 0;
  double class_solve_s = 0;  ///< scalar per-class stage (away+revalue+R+boundary)
  double rsolve_s = 0;       ///< R solves inside the scalar per-class stage
  double boundary_s = 0;     ///< qbd.solve boundary stages inside it
  double serve_request = 0;  ///< serve.request spans (the service's own time)
  std::uint64_t scalar_iterations = 0;  ///< gang.iteration spans
};
StageTimes stage_times(const Trace& t);

// ----------------------------------------------------------------- replay

/// Timed replay of the scalar fixed point through the layers' public
/// functions (gang::away_period, gang::ClassProcess, qbd::solve_r_*,
/// qbd::solve_with_r, ClassProcess::effective_quantum,
/// EffectiveQuantum::fitted) on a workload's own scenarios. It gives the
/// scalar stages no existing timer covers a per-iteration cost; scaled by
/// the run's iteration counts these are replayed estimates, not
/// measurements of the run itself.
struct ReplayStats {
  std::uint64_t iterations = 0;  ///< fixed-point iterations replayed
  double away_ms = 0, revalue_ms = 0, rsolve_ms = 0, boundary_ms = 0,
         effq_ms = 0, fit_ms = 0;
  std::uint64_t r_solves = 0, r_iterations = 0;
  std::uint64_t effq_calls = 0, truncation_levels = 0;
  std::size_t repeating_dim = 0;  ///< largest repeating block order seen

  double per_iteration(double total_ms) const {
    return iterations > 0 ? total_ms / static_cast<double>(iterations) : 0.0;
  }
};
/// Replay at most `max_scenarios` of `scenarios`, evenly spaced.
ReplayStats replay(const std::vector<gs::gang::SystemParams>& scenarios,
                   std::size_t max_scenarios);

/// Packed batched GEMM on dense d x d operands at `width` lanes: the
/// kernel peak the workloads' achieved GEMM rate is read against.
double gemm_peak_gflops(std::size_t d, std::size_t width, std::uint64_t seed);

// --------------------------------------------------------- metric sets

/// The end-to-end metrics, reported by every workload from its untraced
/// pass.
struct EndToEnd {
  double setup_s = 0, points_per_s = 0, solve_ms_p50 = 0;
  double latency_ms_p50 = 0, latency_ms_p99 = 0;
  /// Peak resident set when the measured pass ended, before the
  /// verification pass (which holds references of its own).
  double peak_rss_mb = 0;
};
void emit_end_to_end(Result& r, const EndToEnd& e);

/// Every per-layer metric. A workload that never reaches a layer leaves
/// its fields at zero.
struct Layers {
  double batched_share = 0, fp_iterations = 0, unconverged = 0;
  double boundary_ms = 0, revalue_ms = 0, effq_ms = 0, fit_ms = 0,
         away_ms = 0, unattributed_share = 0, replayed_share = 0;
  double rsolve_ms = 0, rsolve_iterations = 0, boundary_lu_ms = 0,
         truncation_levels = 0;
  double gemm_flops = 0, gemm_gflops = 0, gemm_peak_gflops = 0,
         gemm_bytes = 0, trsm_ms = 0, lu_ms = 0;
  double hit_share = 0, handle_hit_ms = 0, coalesced_share = 0,
         warm_share = 0, handle_miss_ms = 0, handle_sweep_ms = 0;
  /// Executor busy time (serve.request spans) over workers x pass time.
  double worker_util = 0;
  double wait_ms_p50 = 0, shed = 0, late_ms_max = 0;
  /// Client latency split by op: hit, miss, solve_batch, sweep.
  double op_p50[4] = {0, 0, 0, 0}, op_p99[4] = {0, 0, 0, 0};
  double overhead_share = 0;
  /// Wall time over time at the reference host speed in the untraced
  /// pass (HostProbe); 0 for a workload that does not probe.
  double host_slowdown = 0;
};

/// What the solver layers of a traced pass are normalized by.
struct SolverPass {
  double ops = 0;        ///< operations in the traced pass (the "op" of ms/op)
  double wall_ms = 0;    ///< the time the attribution is a share of
  std::uint64_t iterations = 0;  ///< fixed-point iterations of every solve
};

/// Fill the gang/qbd/linalg fields of `l` from a traced pass and a replay.
void fill_solver_layers(Layers& l, const Trace& t, const ReplayStats& rep,
                        const SolverPass& pass, std::uint64_t seed);
void emit_layers(Result& r, const Layers& l);

// ------------------------------------------------------------ workloads

Result run_fig2_sweep(const Args& args);
Result run_heavy_solve(const Args& args);
Result run_gangd_open(const Args& args);

}  // namespace perfbench
