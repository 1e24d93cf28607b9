#include "serve/service.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "serve/canonical.hpp"
#include "util/cli.hpp"
#include "workload/sweep.hpp"

#include "gang/tuner.hpp"

namespace gs::serve {

namespace {

using json::Json;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Json class_result_to_json(const gang::ClassResult& c) {
  Json out = Json::object();
  out.set("name", c.name);
  out.set("mean_jobs", c.mean_jobs);
  out.set("var_jobs", c.var_jobs);
  out.set("response_time", c.response_time);
  out.set("serving_fraction", c.serving_fraction);
  out.set("prob_empty", c.prob_empty);
  out.set("sp_r", c.sp_r);
  out.set("eff_quantum_mean", c.eff_quantum_mean);
  out.set("eff_quantum_atom", c.eff_quantum_atom);
  out.set("arrive_immediate", c.arrive_immediate);
  out.set("arrive_wait_slice", c.arrive_wait_slice);
  out.set("arrive_queued", c.arrive_queued);
  out.set("mean_slice_wait", c.mean_slice_wait);
  if (!c.queue_dist.empty()) {
    Json qd = Json::array();
    for (const double p : c.queue_dist) qd.push_back(p);
    out.set("queue_dist", std::move(qd));
  }
  return out;
}

Json report_to_json(const gang::SolveReport& r) {
  Json out = Json::object();
  Json per_class = Json::array();
  for (const auto& c : r.per_class)
    per_class.push_back(class_result_to_json(c));
  out.set("per_class", std::move(per_class));
  out.set("total_mean_jobs", r.total_mean_jobs());
  out.set("mean_cycle_length", r.mean_cycle_length);
  return out;
}

/// A response's first members: the request's op and id, echoed so every
/// response, success or error, is attributable by the client. `op` gets
/// the op name, or stays empty when the request has none.
Json response_header(const Json& request, std::string& op) {
  Json out = Json::object();
  if (request.is_object()) {
    if (const Json* o = request.find("op"); o && o->is_string())
      op = o->as_string();
    out.set("op", op.empty() ? Json(nullptr) : Json(op));
    if (const Json* id = request.find("id")) out.set("id", *id);
  } else {
    out.set("op", nullptr);
  }
  return out;
}

/// The members of a scenario answered from the cache (after its "hash").
void set_cached(Json& out, const ResultCache::Entry& hit) {
  out.set("cached", true);
  out.set("hits", hit.hits);
  out.set("warm_started", hit.report.used_warm_start);
  out.set("iterations", hit.report.iterations);
  out.set("converged", hit.report.converged);
  out.set("used_optimistic_init", hit.report.used_optimistic_init);
  out.set("result", report_to_json(hit.report));
}

/// A request that still sets the lane width of the removed cross-scenario
/// batching gets a structured invalid_argument saying so, rather than
/// the generic unknown-field error.
void reject_lane_width(const Json& req) {
  constexpr const char* kKey = "batch_width";
  if (req.find(kKey) != nullptr)
    throw InvalidArgument(std::string("'") + kKey +
                          "' is not available: lane batching was removed; "
                          "every scenario solves on its own");
}

/// The vary targets of a sweep: rebuild the system with one distribution
/// rescaled (PhaseType::scaled keeps the shape/SCV and moves the mean —
/// the same convention the paper's figures and the tuner use).
gang::SystemParams vary_system(const gang::SystemParams& base,
                               const std::string& param, double x,
                               std::int64_t cls) {
  GS_CHECK(x > 0.0, "sweep values must be positive");
  std::vector<gang::ClassParams> classes = base.classes();
  for (std::size_t p = 0; p < classes.size(); ++p) {
    if (cls >= 0 && static_cast<std::size_t>(cls) != p) continue;
    auto& c = classes[p];
    if (param == "arrival_rate") {
      c.arrival = c.arrival.scaled(1.0 / (x * c.arrival.mean()));
    } else if (param == "service_rate") {
      c.service = c.service.scaled(1.0 / (x * c.service.mean()));
    } else if (param == "quantum_mean") {
      c.quantum = c.quantum.scaled(x / c.quantum.mean());
    } else if (param == "overhead_mean") {
      c.overhead = c.overhead.scaled(x / c.overhead.mean());
    } else {
      std::string msg = "unknown sweep param '" + param + "'";
      if (const auto hint = util::did_you_mean(
              param, {"arrival_rate", "service_rate", "quantum_mean",
                      "overhead_mean"}))
        msg += " (did you mean '" + *hint + "'?)";
      throw InvalidArgument(msg);
    }
  }
  return gang::SystemParams(base.processors(), std::move(classes));
}

}  // namespace

EvalService::EvalService(ServiceOptions options)
    : options_(options), cache_(options.cache_capacity) {
  GS_CHECK(options_.num_threads >= 1, "service needs at least one thread");
}

std::string EvalService::handle_line(const std::string& line) {
  Json request;
  try {
    request = Json::parse(line);
  } catch (const json::ParseError& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
      ++stats_.errors;
    }
    Json err = Json::object();
    Json detail = Json::object();
    detail.set("type", "parse_error");
    detail.set("message", e.what());
    err.set("error", std::move(detail));
    return err.dump();
  }
  return handle(request).dump();
}

json::Json EvalService::handle(const Json& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  obs::count("serve.requests");
  std::string op;
  Json response = response_header(request, op);

  const auto bump = [this](std::uint64_t ServiceStats::* field) {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*field);
  };
  try {
    GS_CHECK(request.is_object(), "request must be a JSON object");
    GS_CHECK(!op.empty(), "request needs a string 'op' field");
    obs::Span op_span("serve.request");
    op_span.arg("op", op);
    if (op == "solve") {
      bump(&ServiceStats::solve_requests);
      Json r = do_solve(request);
      for (auto& m : r.as_object()) response.set(m.key, std::move(m.value));
    } else if (op == "solve_batch") {
      bump(&ServiceStats::batch_requests);
      Json r = do_solve_batch(request);
      for (auto& m : r.as_object()) response.set(m.key, std::move(m.value));
    } else if (op == "sweep") {
      bump(&ServiceStats::sweep_requests);
      Json r = do_sweep(request);
      for (auto& m : r.as_object()) response.set(m.key, std::move(m.value));
    } else if (op == "tune") {
      bump(&ServiceStats::tune_requests);
      Json r = do_tune(request);
      for (auto& m : r.as_object()) response.set(m.key, std::move(m.value));
    } else if (op == "stats") {
      bump(&ServiceStats::stats_requests);
      Json r = do_stats();
      for (auto& m : r.as_object()) response.set(m.key, std::move(m.value));
    } else if (op == "shutdown") {
      shutdown_.store(true, std::memory_order_relaxed);
      response.set("ok", true);
    } else {
      std::string msg = "unknown op '" + op + "'";
      if (const auto hint = util::did_you_mean(
              op,
              {"solve", "solve_batch", "sweep", "tune", "stats", "shutdown"}))
        msg += " (did you mean '" + *hint + "'?)";
      throw InvalidArgument(msg);
    }
  } catch (const NumericalError& e) {
    bump(&ServiceStats::errors);
    obs::count("serve.errors");
    Json detail = Json::object();
    detail.set("type", "numerical_error");
    detail.set("message", e.what());
    response.set("error", std::move(detail));
  } catch (const Error& e) {
    bump(&ServiceStats::errors);
    obs::count("serve.errors");
    Json detail = Json::object();
    detail.set("type", "invalid_argument");
    detail.set("message", e.what());
    response.set("error", std::move(detail));
  }
  return response;
}

ScenarioKey EvalService::scenario_key(const Json& request,
                                      const char* what) const {
  const Json* system = request.find("system");
  GS_CHECK(system != nullptr,
           std::string(what) + " needs a 'system' field");
  ScenarioKey key{params_from_json(*system),
                  options_from_json(request.find("options")
                                        ? *request.find("options")
                                        : Json(nullptr)),
                  {}, 0, options_.warm_start};
  key.options.num_threads = options_.num_threads;
  key.options.pool = options_.pool;
  key.canonical = canonical_scenario(key.params, key.options);
  key.hash = json::fnv1a64(key.canonical);
  if (const Json* w = request.find("warm_start")) key.warm = w->as_bool();
  return key;
}

std::optional<Json> EvalService::handle_cached(const Json& request,
                                               const ScenarioKey& key) {
  std::string op;
  Json response = response_header(request, op);
  response.set("hash", json::hash_hex(key.hash));
  std::optional<obs::Span> op_span;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // peek, not find: a probe that misses leaves the miss to be counted
    // by the solve that follows.
    if (cache_.peek(key.hash) == nullptr) return std::nullopt;
    op_span.emplace("serve.request");
    op_span->arg("op", op);
    ++stats_.requests;
    ++stats_.solve_requests;
    ++stats_.cache_hits;
    set_cached(response, *cache_.find(key.hash));
  }
  obs::count("serve.requests");
  return response;
}

json::Json EvalService::do_solve(const Json& req) {
  ScenarioKey key = scenario_key(req);
  const std::uint64_t shape = structure_hash(key.params, key.options);

  Json out = Json::object();
  out.set("hash", json::hash_hex(key.hash));

  // Cache lookup and warm-start donor resolution happen under the lock;
  // the donor's slices are copied out so the solve itself — the long part
  // — runs with no lock held and concurrent requests overlap.
  std::vector<phase::PhaseType> donor_slices;
  bool have_donor = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const ResultCache::Entry* hit = cache_.find(key.hash)) {
      ++stats_.cache_hits;
      set_cached(out, *hit);
      return out;
    }
    ++stats_.cache_misses;
    if (key.warm) {
      if (auto it = warm_index_.find(shape); it != warm_index_.end()) {
        if (const ResultCache::Entry* e = cache_.peek(it->second)) {
          if (e->report.final_slices.size() == key.params.num_classes()) {
            donor_slices = e->report.final_slices;
            have_donor = true;
          }
        }
      }
    }
  }

  const gang::GangSolver solver(key.params, key.options);
  const auto start = std::chrono::steady_clock::now();
  gang::SolveReport report =
      have_donor ? solver.solve_warm(donor_slices) : solver.solve();
  const double ms = elapsed_ms(start);

  out.set("cached", false);
  out.set("warm_started", report.used_warm_start);
  out.set("iterations", report.iterations);
  out.set("converged", report.converged);
  out.set("used_optimistic_init", report.used_optimistic_init);
  out.set("result", report_to_json(report));
  if (!options_.deterministic) out.set("ms", ms);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.solves_executed;
    stats_.fixed_point_iterations +=
        static_cast<std::uint64_t>(report.iterations);
    stats_.solve_ms_total += ms;
    stats_.solve_ms_max = std::max(stats_.solve_ms_max, ms);
    if (report.used_warm_start) ++stats_.warm_starts;
    cache_.insert(key.hash, std::move(key.canonical), std::move(report));
    warm_index_[shape] = key.hash;
  }
  return out;
}

json::Json EvalService::do_solve_batch(const Json& req) {
  const Json* items = req.find("items");
  GS_CHECK(items != nullptr && items->is_array(),
           "solve_batch needs an 'items' array");
  const auto& arr = items->as_array();
  GS_CHECK(!arr.empty(), "solve_batch needs at least one item");
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.batch_items += arr.size();
  }

  reject_lane_width(req);

  // Parse and hash every item before solving anything: a malformed item
  // is one structured error for the whole request (matching 'solve'),
  // not a half-answered batch.
  std::vector<ScenarioKey> keys;
  std::vector<std::uint64_t> shape;
  keys.reserve(arr.size());
  shape.reserve(arr.size());
  for (const Json& item : arr) {
    GS_CHECK(item.is_object(), "solve_batch items must be objects");
    keys.push_back(scenario_key(item, "solve_batch item"));
    shape.push_back(structure_hash(keys.back().params, keys.back().options));
  }

  // Cache hits answer their item directly; the rest are solved below.
  // Donor slices are copied out under the lock so the solves themselves
  // run unlocked (and no insert can invalidate them).
  std::vector<Json> results(arr.size());
  std::vector<std::size_t> miss;
  std::vector<std::vector<phase::PhaseType>> donors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      Json& out = results[i];
      out = Json::object();
      out.set("hash", json::hash_hex(keys[i].hash));
      if (const ResultCache::Entry* hit = cache_.find(keys[i].hash)) {
        ++stats_.cache_hits;
        set_cached(out, *hit);
        continue;
      }
      ++stats_.cache_misses;
      std::vector<phase::PhaseType> donor;
      if (keys[i].warm) {
        if (auto it = warm_index_.find(shape[i]); it != warm_index_.end()) {
          if (const ResultCache::Entry* e = cache_.peek(it->second))
            if (e->report.final_slices.size() == keys[i].params.num_classes())
              donor = e->report.final_slices;
        }
      }
      miss.push_back(i);
      donors.push_back(std::move(donor));
    }
  }

  // Misses solve one by one in item order; an item whose solve throws
  // carries the error string and the rest still solve. (Bad solver
  // options still fail the whole request, from the constructors.)
  const auto start = std::chrono::steady_clock::now();
  std::vector<gang::GangSolver> solvers;
  solvers.reserve(miss.size());
  for (const std::size_t i : miss)
    solvers.emplace_back(keys[i].params, keys[i].options);
  std::vector<gang::SolveReport> reports(miss.size());
  std::vector<std::string> errors(miss.size());
  for (std::size_t t = 0; t < miss.size(); ++t) {
    try {
      reports[t] = donors[t].empty() ? solvers[t].solve()
                                     : solvers[t].solve_warm(donors[t]);
    } catch (const Error& e) {
      errors[t] = e.what();
    }
  }
  const double ms = elapsed_ms(start);

  // Per-item cache fills, in item order — exactly the entries a sequence
  // of 'solve' requests would have created.
  std::lock_guard<std::mutex> lock(mu_);
  stats_.solve_ms_total += ms;
  stats_.solve_ms_max = std::max(stats_.solve_ms_max, ms);
  for (std::size_t t = 0; t < miss.size(); ++t) {
    const std::size_t i = miss[t];
    Json& out = results[i];
    gang::SolveReport& report = reports[t];
    out.set("cached", false);
    if (!errors[t].empty()) {
      out.set("error", errors[t]);
      continue;
    }
    ++stats_.solves_executed;
    stats_.fixed_point_iterations +=
        static_cast<std::uint64_t>(report.iterations);
    if (report.used_warm_start) ++stats_.warm_starts;
    out.set("warm_started", report.used_warm_start);
    out.set("iterations", report.iterations);
    out.set("converged", report.converged);
    out.set("used_optimistic_init", report.used_optimistic_init);
    out.set("result", report_to_json(report));
    cache_.insert(keys[i].hash, std::move(keys[i].canonical),
                  std::move(report));
    warm_index_[shape[i]] = keys[i].hash;
  }

  Json out = Json::object();
  Json rows = Json::array();
  for (Json& r : results) rows.push_back(std::move(r));
  out.set("results", std::move(rows));
  if (!options_.deterministic) out.set("ms", ms);
  return out;
}

json::Json EvalService::do_sweep(const Json& req) {
  // Strict key set. The dispatch-tuning field chain_stride changes speed,
  // never answers — a silent typo would look like a correct but slow
  // request, so unknown keys are an error with a nearest-match hint
  // instead.
  reject_lane_width(req);
  for (const auto& m : req.as_object()) {
    const std::string& k = m.key;
    if (k == "op" || k == "id" || k == "system" || k == "options" ||
        k == "vary" || k == "warm_start" || k == "chain_stride")
      continue;
    std::string msg = "unknown sweep field '" + k + "'";
    if (const auto hint = util::did_you_mean(
            k, {"system", "options", "vary", "warm_start", "chain_stride"}))
      msg += " (did you mean '" + *hint + "'?)";
    throw InvalidArgument(msg);
  }
  const Json* system = req.find("system");
  GS_CHECK(system != nullptr, "sweep needs a 'system' field");
  const gang::SystemParams base = params_from_json(*system);
  gang::GangSolveOptions solver_opts = options_from_json(
      req.find("options") ? *req.find("options") : Json(nullptr));

  const Json* vary = req.find("vary");
  GS_CHECK(vary != nullptr, "sweep needs a 'vary' field");
  const std::string param = vary->at("param").as_string();
  std::int64_t cls = -1;
  if (const Json* c = vary->find("class")) cls = c->as_int();
  std::vector<double> xs;
  for (const auto& x : vary->at("values").as_array())
    xs.push_back(x.as_double());
  GS_CHECK(!xs.empty(), "sweep needs at least one value");
  // Validate the vary target (and class index) before fanning out so a bad
  // request is one structured error, not one error row per point.
  vary_system(base, param, xs.front(), cls);

  workload::SweepOptions sweep_opts;
  sweep_opts.solver = solver_opts;
  sweep_opts.num_threads = options_.num_threads;
  sweep_opts.pool = options_.pool;
  // Chain the sweep's fixed points by default when the service warm-starts
  // solves: anchors solve cold, neighbours seed from them (bitwise-stable
  // across thread counts; same fixed points as cold within solver
  // tolerance, fewer iterations). Requests opt out (or in) per call.
  sweep_opts.warm_chain = options_.warm_start;
  if (const Json* w = req.find("warm_start"))
    sweep_opts.warm_chain = w->as_bool();
  // Anchor spacing of the warm chain, exposed per request (default: the
  // SweepOptions default).
  if (const Json* s = req.find("chain_stride")) {
    GS_CHECK(s->as_int() >= 1, "chain_stride must be >= 1");
    sweep_opts.chain_stride = static_cast<std::size_t>(s->as_int());
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<workload::SweepPoint> points = workload::sweep(
      xs,
      [&](double x) { return vary_system(base, param, x, cls); },
      sweep_opts);
  const double ms = elapsed_ms(start);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.sweep_points += points.size();
  }

  Json rows = Json::array();
  for (const auto& pt : points) {
    Json row = Json::object();
    row.set("x", pt.x);
    if (!pt.error.empty()) {
      row.set("error", pt.error);
    } else {
      Json n = Json::array();
      double total = 0.0;
      for (const double v : pt.model_n) {
        n.push_back(v);
        total += v;
      }
      row.set("mean_jobs", std::move(n));
      row.set("total_mean_jobs", total);
      row.set("iterations", pt.iterations);
      row.set("converged", pt.converged);
    }
    rows.push_back(std::move(row));
  }
  Json out = Json::object();
  out.set("param", param);
  out.set("points", std::move(rows));
  if (!options_.deterministic) out.set("ms", ms);
  return out;
}

json::Json EvalService::do_tune(const Json& req) {
  const Json* system = req.find("system");
  GS_CHECK(system != nullptr, "tune needs a 'system' field");
  const gang::SystemParams params = params_from_json(*system);

  std::string mode = "common";
  if (const Json* m = req.find("mode")) mode = m->as_string();
  GS_CHECK(mode == "common" || mode == "per_class",
           "tune mode must be 'common' or 'per_class'");

  gang::TuneObjective objective;
  if (const Json* obj = req.find("objective")) {
    if (const Json* kind = obj->find("kind")) {
      const std::string& s = kind->as_string();
      if (s == "total_mean_jobs")
        objective.kind = gang::TuneObjective::Kind::kTotalMeanJobs;
      else if (s == "weighted_response")
        objective.kind = gang::TuneObjective::Kind::kWeightedResponse;
      else
        throw InvalidArgument(
            "objective.kind must be 'total_mean_jobs' or "
            "'weighted_response'");
    }
    if (const Json* w = obj->find("weights"))
      for (const auto& x : w->as_array())
        objective.weights.push_back(x.as_double());
  }

  gang::TuneOptions topts;
  if (const Json* t = req.find("tune")) {
    if (const Json* x = t->find("quantum_min"))
      topts.quantum_min = x->as_double();
    if (const Json* x = t->find("quantum_max"))
      topts.quantum_max = x->as_double();
    if (const Json* x = t->find("tol")) topts.tol = x->as_double();
    if (const Json* x = t->find("bracket_points"))
      topts.bracket_points = static_cast<int>(x->as_int());
    if (const Json* x = t->find("max_sweeps"))
      topts.max_sweeps = static_cast<int>(x->as_int());
  }
  topts.solver = options_from_json(
      req.find("options") ? *req.find("options") : Json(nullptr));
  topts.solver.num_threads = options_.num_threads;
  topts.solver.pool = options_.pool;

  const auto start = std::chrono::steady_clock::now();
  const gang::TuneResult result =
      mode == "common" ? gang::tune_common_quantum(params, objective, topts)
                       : gang::tune_per_class_quanta(params, objective, topts);
  const double ms = elapsed_ms(start);

  Json out = Json::object();
  Json quanta = Json::array();
  for (const double q : result.quantum_means) quanta.push_back(q);
  out.set("quantum_means", std::move(quanta));
  out.set("objective", result.objective);
  out.set("evaluations", result.evaluations);
  out.set("improved", result.improved);
  out.set("result", report_to_json(result.report));
  if (!options_.deterministic) out.set("ms", ms);
  return out;
}

json::Json EvalService::do_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::object();
  out.set("requests", stats_.requests);
  out.set("errors", stats_.errors);
  Json ops = Json::object();
  ops.set("solve", stats_.solve_requests);
  ops.set("solve_batch", stats_.batch_requests);
  ops.set("sweep", stats_.sweep_requests);
  ops.set("tune", stats_.tune_requests);
  ops.set("stats", stats_.stats_requests);
  out.set("ops", std::move(ops));
  Json solver = Json::object();
  solver.set("solves_executed", stats_.solves_executed);
  solver.set("warm_starts", stats_.warm_starts);
  solver.set("fixed_point_iterations", stats_.fixed_point_iterations);
  solver.set("sweep_points", stats_.sweep_points);
  out.set("solver", std::move(solver));
  Json cache = Json::object();
  cache.set("capacity", cache_.capacity());
  cache.set("size", cache_.size());
  cache.set("hits", stats_.cache_hits);
  cache.set("misses", stats_.cache_misses);
  cache.set("evictions", cache_.evictions());
  Json entries = Json::array();
  for (const ResultCache::Entry* e : cache_.entries()) {
    Json ej = Json::object();
    ej.set("hash", json::hash_hex(e->key));
    ej.set("hits", e->hits);
    entries.push_back(std::move(ej));
  }
  cache.set("entries", std::move(entries));
  out.set("cache", std::move(cache));
  if (!options_.deterministic) {
    Json lat = Json::object();
    lat.set("solve_total", stats_.solve_ms_total);
    lat.set("solve_max", stats_.solve_ms_max);
    lat.set("solve_mean", stats_.solves_executed
                              ? stats_.solve_ms_total /
                                    static_cast<double>(stats_.solves_executed)
                              : 0.0);
    out.set("latency_ms", std::move(lat));
  }
  // Transport counters of the event-loop daemon, when one is attached.
  // Gated on !deterministic like the latency block: queue depths and
  // coalescing counts depend on arrival timing, and the golden smoke
  // diff must stay byte-stable across the stdio and TCP transports.
  if (net_stats_ != nullptr && !options_.deterministic) {
    const NetStats& n = *net_stats_;
    Json net = Json::object();
    net.set("connections", n.connections.load());
    net.set("accepted", n.accepted.load());
    net.set("closed", n.closed.load());
    net.set("requests", n.requests.load());
    net.set("shed", n.shed.load());
    net.set("coalesced", n.coalesced.load());
    net.set("hits_inline", n.hits_inline.load());
    net.set("oversized", n.oversized.load());
    net.set("dropped", n.dropped.load());
    net.set("inflight", n.inflight.load());
    net.set("queue_depth",
            std::max<std::int64_t>(0, n.inflight.load() - n.executing.load()));
    out.set("net", std::move(net));
  }
  // The full metrics snapshot rides along when obs is recording. Gated on
  // !deterministic because the values (timer totals, pool scheduling
  // counters) depend on wall clock and thread interleaving — the golden
  // smoke diff must stay byte-stable.
  if (obs::metrics_enabled() && !options_.deterministic) {
    out.set("obs", obs::snapshot_to_json(obs::snapshot()));
  }
  return out;
}

std::string EvalService::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "gangd summary: " << stats_.requests << " requests ("
     << stats_.solve_requests << " solve, " << stats_.batch_requests
     << " solve_batch/" << stats_.batch_items << " items, "
     << stats_.sweep_requests << " sweep, " << stats_.tune_requests
     << " tune, " << stats_.stats_requests << " stats), " << stats_.errors
     << " errors; "
     << stats_.solves_executed << " solves executed ("
     << stats_.warm_starts << " warm-started, "
     << stats_.fixed_point_iterations << " fixed-point iterations), "
     << "cache " << cache_.size() << "/" << cache_.capacity() << " ("
     << stats_.cache_hits << " hits, " << stats_.cache_misses
     << " misses, " << cache_.evictions() << " evictions)";
  if (!options_.deterministic && stats_.solves_executed > 0) {
    os << "; solve ms total " << stats_.solve_ms_total << ", max "
       << stats_.solve_ms_max;
  }
  return os.str();
}

}  // namespace gs::serve
