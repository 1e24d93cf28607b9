// The gang-model evaluation service behind gangd.
//
// One EvalService owns the result cache, the warm-start index, and the
// request counters. Requests and responses are JSON objects (one NDJSON
// line each on the wire); see DESIGN.md "Service layer" for the protocol.
//
//   solve     — full fixed-point solve of one scenario. Answered from the
//               LRU cache on a scenario-hash hit; on a miss, warm-started
//               from the most recent solve with the same structure hash.
//   solve_batch — many scenarios in one request. Cache hits answer per
//               item; the misses solve one by one in item order (each
//               exactly as a 'solve' would, donor warm start included),
//               and every item fills the cache and warm index as if
//               solved alone.
//   sweep     — a batch of solves over a varied parameter, fanned out on
//               the service's ThreadPool (row order and results bitwise
//               identical to sequential; workload::sweep). Requests set
//               the warm chain's anchor spacing via 'chain_stride'.
//   tune      — quantum optimization (gang::tuner) over a scenario.
//   stats     — counters, cache state, latency aggregates.
//   shutdown  — acknowledge and mark the service for termination.
//
// Failures never escape as exceptions: model-validation errors
// (gs::InvalidArgument — e.g. P not divisible by g(p), a non-stochastic
// PH input), solver instability (gs::NumericalError), and malformed JSON
// all come back as {"error":{...}} responses, and the service stays up.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "json/json.hpp"
#include "serve/cache.hpp"

namespace gs::util {
class ThreadPool;
}  // namespace gs::util

namespace gs::serve {

/// Transport-level counters of the event-loop daemon (serve::Dispatcher
/// maintains them; the stats op reports them when attached). Plain
/// atomics so the dispatcher's executor threads, the event loop, and a
/// stats request can all touch them without a lock.
struct NetStats {
  std::atomic<std::uint64_t> accepted{0};   ///< connections accepted
  std::atomic<std::uint64_t> closed{0};     ///< connections fully closed
  std::atomic<std::uint64_t> requests{0};   ///< request lines delivered
  std::atomic<std::uint64_t> shed{0};       ///< rejected by admission ctl
  std::atomic<std::uint64_t> coalesced{0};  ///< riders on in-flight solves
  std::atomic<std::uint64_t> hits_inline{0};  ///< cache hits answered on the loop
  std::atomic<std::uint64_t> oversized{0};  ///< over-limit lines
  std::atomic<std::uint64_t> dropped{0};    ///< responses to gone clients
  std::atomic<std::int64_t> connections{0};  ///< currently open
  std::atomic<std::int64_t> inflight{0};     ///< admitted, not yet answered
  std::atomic<std::int64_t> executing{0};    ///< running on an executor
};

struct ServiceOptions {
  /// Lanes of concurrency inside a request (per-class chains of a solve,
  /// points of a sweep). Lanes run on the process-wide
  /// util::ThreadPool::shared() — persistent across requests, so the
  /// daemon pays no thread create/join per request — unless `pool`
  /// injects one. Concurrency *across* requests is the transport's
  /// business: the stdio loop is serial, the event-loop daemon overlaps
  /// requests from different connections (serve/dispatch.hpp).
  int num_threads = 1;
  /// LRU capacity in scenarios; 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Warm-start cache misses from a structurally identical prior solve.
  bool warm_start = true;
  /// Omit wall-clock fields from responses so output is byte-stable
  /// across runs (the golden-file smoke test).
  bool deterministic = false;
  /// Test/embedder override for the pool the request lanes run on
  /// (non-owning; must outlive the service). Null uses the shared pool.
  util::ThreadPool* pool = nullptr;
};

/// One scenario request (a `solve` request or a `solve_batch` item) as
/// the service resolves it. The cache key is `hash`; serve::Dispatcher
/// derives its coalescing key from the same value, so the two cannot
/// drift apart.
struct ScenarioKey {
  gang::SystemParams params;
  /// The request's solver options with the service's threads and pool.
  gang::GangSolveOptions options;
  /// canonical_scenario(params, options): the hash preimage.
  std::string canonical;
  /// FNV-1a 64 of `canonical`: the result-cache key.
  std::uint64_t hash = 0;
  /// Whether a miss may warm-start from a donor (request `warm_start`,
  /// else the service default).
  bool warm = true;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t solve_requests = 0;
  std::uint64_t batch_requests = 0;  ///< solve_batch ops received
  std::uint64_t batch_items = 0;     ///< items across those ops
  std::uint64_t sweep_requests = 0;
  std::uint64_t tune_requests = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t solves_executed = 0;  ///< actual solver runs (not hits)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t sweep_points = 0;
  std::uint64_t fixed_point_iterations = 0;  ///< summed over executed solves
  double solve_ms_total = 0.0;
  double solve_ms_max = 0.0;
};

/// The evaluation service. handle()/handle_line() are safe to call from
/// any number of threads concurrently: a mutex guards the cache, warm
/// index, and counters, while the solver runs *outside* it (warm-start
/// donor slices are copied out under the lock), so concurrent requests
/// overlap their numerical work and only serialize on bookkeeping.
class EvalService {
 public:
  explicit EvalService(ServiceOptions options = {});

  /// Handle one NDJSON request line; returns exactly one response line
  /// (no trailing newline). Never throws.
  std::string handle_line(const std::string& line);

  /// Handle a parsed request. Never throws.
  json::Json handle(const json::Json& request);

  /// Resolve a scenario request the way the solve op does. Throws
  /// gs::Error where that op would answer with an error; `what` names
  /// the request in those messages.
  ScenarioKey scenario_key(const json::Json& request,
                           const char* what = "solve") const;

  /// Answer the solve request `request`, whose scenario_key is `key`,
  /// from the cache: the response handle(request) would give, counted
  /// the same way (requests, solve ops, cache hits, the serve.request
  /// span). When `key` is not cached, returns nullopt and counts
  /// nothing, not even a cache miss.
  std::optional<json::Json> handle_cached(const json::Json& request,
                                          const ScenarioKey& key);

  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }
  /// Counter snapshot. Do not read while other threads are mid-request.
  const ServiceStats& stats() const { return stats_; }
  const ResultCache& cache() const { return cache_; }
  const ServiceOptions& options() const { return options_; }

  /// Attach/detach transport counters; when non-null (and the service is
  /// not in deterministic mode) the stats op reports them under "net".
  /// The pointed-to struct must outlive the attachment.
  void attach_net_stats(const NetStats* stats) { net_stats_ = stats; }

  /// Persist the result cache and warm-start donor index as NDJSON (one
  /// canonical scenario + full report per line, least-recently-used
  /// first). Returns the number of entries written. Restoring the
  /// snapshot with load_cache reproduces cache contents, LRU order, hit
  /// counters, and warm-start donors, so a daemon restart answers its
  /// old working set byte-for-byte and never goes cold.
  std::size_t save_cache(std::ostream& out) const;
  std::size_t save_cache_file(const std::string& path) const;

  /// Load a save_cache snapshot, re-deriving every scenario hash and
  /// structure hash from the canonical text. Entries beyond the cache
  /// capacity evict in LRU order, exactly as if solved live. Lines
  /// stamped with another solver revision, or with none, are skipped
  /// and counted in serve.cache.snapshot_stale (their answers may no
  /// longer be this solver's). Returns the number of entries loaded;
  /// throws gs::Error on malformed input.
  std::size_t load_cache(std::istream& in);
  std::size_t load_cache_file(const std::string& path);

  /// Human-readable end-of-session summary (for stderr at exit).
  std::string summary() const;

 private:
  json::Json do_solve(const json::Json& req);
  json::Json do_solve_batch(const json::Json& req);
  json::Json do_sweep(const json::Json& req);
  json::Json do_tune(const json::Json& req);
  json::Json do_stats() const;

  ServiceOptions options_;
  /// Guards cache_, warm_index_, and stats_ (never held across a solve).
  mutable std::mutex mu_;
  ResultCache cache_;
  /// structure hash -> scenario hash of the most recent solve with that
  /// shape (the warm-start donor).
  std::unordered_map<std::uint64_t, std::uint64_t> warm_index_;
  ServiceStats stats_;
  const NetStats* net_stats_ = nullptr;
  std::atomic<bool> shutdown_{false};
};

}  // namespace gs::serve
