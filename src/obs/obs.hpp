// Process-wide observability: a lock-cheap metrics registry plus scoped
// trace spans, shared by the solver stack, the thread pool, and the
// serve/ layer.
//
// Design constraints, in order:
//  * Off by default, near-zero when off. Library code never enables
//    observability (ObsOptions{} is all-off); tools and benches opt in.
//    Every recording call starts with one relaxed atomic load and a
//    branch, so the disabled hot path costs a test-and-skip and reads no
//    clock.
//  * Bitwise-neutral when on. Instrumentation only reads clocks and
//    updates integers/doubles *outside* the numerical state — it never
//    touches an operand of the solvers, so enabling metrics or tracing
//    cannot change any computed result (tests/obs/test_neutrality.cpp
//    pins solver and sweep outputs bitwise against the disabled run).
//  * Sharded writes, merged reads. Each thread owns a shard; steady-state
//    updates are relaxed atomic RMWs on cells of the calling thread's
//    shard (no cross-thread contention; a shard lock is taken only the
//    first time a thread touches a metric name, and by snapshot()).
//    snapshot() merges all shards — including those of exited threads,
//    whose values are folded into a retired store — and sorts by name, so
//    a snapshot is deterministic given the same recorded totals.
//  * No dependencies. This core must be linkable from util (the thread
//    pool records here), so it depends on nothing but the standard
//    library; JSON export lives in obs/export.hpp on top of src/json.
//
// Metric kinds:
//  * counter    — monotonically increasing uint64 (events, iterations).
//  * gauge      — last-written double (configuration echoes, sizes).
//  * timer      — {count, total_ns, max_ns} accumulated from Span or
//                 time_ns (latency totals without per-event storage).
//  * histogram  — fixed power-of-two buckets over a double (shape of a
//                 distribution, e.g. fixed-point iterations per solve).
//
// Trace spans record {name, tid, start, dur, args} complete events into
// per-thread buffers; obs::trace_events() returns them merged and sorted,
// and obs/export.hpp renders Chrome trace-event JSON for
// chrome://tracing / Perfetto.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gs::obs {

/// Master switches. Default-constructed = everything off — the library
/// default; tools (gangd, benches) construct their own and call
/// configure().
struct ObsOptions {
  bool metrics = false;  ///< record counters/gauges/timers/histograms
  bool trace = false;    ///< record trace-span events
};

/// Set the process-wide switches (thread-safe; takes effect immediately
/// for subsequent recording calls). Enabling mid-run is allowed — spans
/// already open stay unarmed.
void configure(const ObsOptions& opts);

/// Current switch state, one relaxed atomic load each.
bool metrics_enabled();
bool trace_enabled();

/// Zero every metric value and drop every trace event (the switches and
/// registered names persist). Tests and bench sections call this between
/// phases; it must not run concurrently with recording threads that the
/// caller cares about attributing precisely.
void reset();

// -- recording (each a no-op when the relevant switch is off) -------------

/// Add `delta` to a counter. Thread-safe, wait-free after the calling
/// thread's first touch of `name`.
void count(std::string_view name, std::uint64_t delta = 1);

/// Set a gauge; the last write (across all threads) wins in snapshots.
void gauge_set(std::string_view name, double value);

/// Accumulate one duration into a timer.
void time_ns(std::string_view name, std::uint64_t ns);

/// Record one observation into a fixed-bucket histogram (bounds are the
/// shared power-of-two ladder of histogram_bounds()).
void observe(std::string_view name, double value);

/// Nanoseconds of steady-clock time since the process-wide trace epoch
/// (the registry's creation). Monotonic; safe to call when disabled.
std::uint64_t now_ns();

/// One argument attached to a trace event (rendered into the Chrome
/// trace "args" object).
struct TraceArg {
  std::string key;
  bool is_number = true;
  double number = 0.0;
  std::string text;
};

/// One complete ("ph":"X") trace event.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;       ///< small stable per-thread id (1, 2, ...)
  std::uint64_t start_ns = 0;  ///< steady time since the trace epoch
  std::uint64_t dur_ns = 0;
  std::vector<TraceArg> args;
};

/// Scoped instrumentation for one timed region. On destruction it feeds
/// the timer metric `name` (when metrics are on) and appends a TraceEvent
/// (when tracing is on). When both switches are off at construction the
/// span is fully unarmed: no clock read, no allocation, no work in the
/// destructor. args are retained only when tracing.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach an argument to the trace event (no-ops when not tracing).
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::string_view value);

 private:
  const char* name_;
  std::uint64_t start_ = 0;
  bool metrics_ = false;
  bool trace_ = false;
  std::vector<TraceArg> args_;
};

// -- snapshots -------------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
};

struct TimerValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

struct HistogramValue {
  std::string name;
  /// bucket[i] counts observations <= histogram_bounds()[i]; the final
  /// extra slot counts overflows.
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// A merged, name-sorted view of every metric recorded so far (live
/// shards plus retired threads). Deterministic: two snapshots taken after
/// the same recorded totals compare equal regardless of which threads did
/// the recording.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<TimerValue> timers;
  std::vector<HistogramValue> histograms;

  /// Lookup helpers; nullptr / fallback when the name was never recorded.
  const CounterValue* counter(std::string_view name) const;
  const TimerValue* timer(std::string_view name) const;
  const HistogramValue* histogram(std::string_view name) const;
  std::uint64_t counter_value(std::string_view name,
                              std::uint64_t fallback = 0) const;
};

/// Merge all shards into a Snapshot. Thread-safe; concurrent recording
/// keeps running (in-flight relaxed updates may or may not be included).
Snapshot snapshot();

/// The shared histogram bucket upper bounds: powers of two from 2^-10 to
/// 2^16 (observations above the last bound land in the overflow slot).
const std::vector<double>& histogram_bounds();

/// All trace events recorded so far, merged across threads and sorted by
/// (start, tid, name). Thread-safe; does not drain the buffers.
std::vector<TraceEvent> trace_events();

/// Events dropped because a thread hit its per-thread buffer cap.
std::uint64_t trace_dropped();

}  // namespace gs::obs
