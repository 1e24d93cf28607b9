// End-to-end tests of the evaluation service: a solve answered through
// the NDJSON boundary is bitwise identical to a direct GangSolver call,
// repeats hit the cache, perturbed re-queries warm-start, and every
// failure mode comes back as a structured error with the daemon alive.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>

#include "gang/solver.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "workload/paper_configs.hpp"
#include "workload/sweep.hpp"

namespace {

using gs::gang::GangSolver;
using gs::gang::SolveReport;
using gs::json::Json;
using gs::serve::EvalService;
using gs::serve::ServiceOptions;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;

Json solve_request(const gs::gang::SystemParams& sys) {
  Json req = Json::object();
  req.set("op", "solve");
  req.set("system", gs::serve::params_to_json(sys));
  return req;
}

TEST(Service, SolveMatchesDirectSolverBitwise) {
  // The paper's Figure 2 configuration through the full JSON boundary:
  // request serialization, canonicalization, solve, response
  // serialization, response parse. Every reported double must come back
  // bit-for-bit equal to the direct GangSolver call — json::format_double
  // round-trips exactly and the solve itself is deterministic.
  const auto sys = paper_system();
  gs::gang::GangSolveOptions opts;
  const SolveReport direct = GangSolver(sys, opts).solve();

  EvalService service;
  const Json resp =
      Json::parse(service.handle_line(solve_request(sys).dump()));
  ASSERT_EQ(resp.find("error"), nullptr) << resp.dump();
  EXPECT_EQ(resp.at("op").as_string(), "solve");
  EXPECT_FALSE(resp.at("cached").as_bool());
  EXPECT_TRUE(resp.at("converged").as_bool());
  EXPECT_EQ(resp.at("iterations").as_int(), direct.iterations);
  EXPECT_EQ(resp.at("hash").as_string(),
            gs::json::hash_hex(gs::serve::scenario_hash(sys, opts)));

  const auto& per_class = resp.at("result").at("per_class").as_array();
  ASSERT_EQ(per_class.size(), direct.per_class.size());
  for (std::size_t p = 0; p < per_class.size(); ++p) {
    const auto& cj = per_class[p];
    const auto& cd = direct.per_class[p];
    EXPECT_EQ(cj.at("name").as_string(), cd.name);
    EXPECT_EQ(cj.at("mean_jobs").as_double(), cd.mean_jobs);  // bitwise
    EXPECT_EQ(cj.at("var_jobs").as_double(), cd.var_jobs);
    EXPECT_EQ(cj.at("response_time").as_double(), cd.response_time);
    EXPECT_EQ(cj.at("serving_fraction").as_double(), cd.serving_fraction);
    EXPECT_EQ(cj.at("prob_empty").as_double(), cd.prob_empty);
    EXPECT_EQ(cj.at("sp_r").as_double(), cd.sp_r);
    EXPECT_EQ(cj.at("eff_quantum_mean").as_double(), cd.eff_quantum_mean);
    EXPECT_EQ(cj.at("eff_quantum_atom").as_double(), cd.eff_quantum_atom);
  }
  EXPECT_EQ(resp.at("result").at("total_mean_jobs").as_double(),
            direct.total_mean_jobs());
  EXPECT_EQ(resp.at("result").at("mean_cycle_length").as_double(),
            direct.mean_cycle_length);
}

TEST(Service, RepeatSolveIsServedFromCache) {
  EvalService service;
  const std::string req = solve_request(paper_system()).dump();
  const Json first = Json::parse(service.handle_line(req));
  const Json second = Json::parse(service.handle_line(req));
  EXPECT_FALSE(first.at("cached").as_bool());
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("hits").as_int(), 1);
  EXPECT_EQ(second.at("result").dump(), first.at("result").dump());
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().solves_executed, 1u);
}

TEST(Service, HandleCachedAnswersAHitLikeHandle) {
  // Two services in the same state: one answers the repeat through
  // handle(), the other through handle_cached(). Same bytes (the hit
  // counter included) and the same counters.
  Json req = solve_request(paper_system());
  req.set("id", "r1");
  EvalService a(ServiceOptions{1, 16, true, /*deterministic=*/true});
  EvalService b(ServiceOptions{1, 16, true, /*deterministic=*/true});
  ASSERT_EQ(a.handle(req).dump(), b.handle(req).dump());

  for (int rep = 0; rep < 2; ++rep) {
    const Json via_handle = a.handle(req);
    const std::optional<Json> via_cached =
        b.handle_cached(req, b.scenario_key(req));
    ASSERT_TRUE(via_cached.has_value());
    EXPECT_EQ(via_cached->dump(), via_handle.dump());
    EXPECT_EQ(via_cached->at("hits").as_int(), rep + 1);
  }
  EXPECT_EQ(b.stats().requests, a.stats().requests);
  EXPECT_EQ(b.stats().solve_requests, a.stats().solve_requests);
  EXPECT_EQ(b.stats().cache_hits, a.stats().cache_hits);
  EXPECT_EQ(b.stats().cache_misses, a.stats().cache_misses);
}

TEST(Service, HandleCachedCountsNothingOnAMiss) {
  EvalService service;
  const Json req = solve_request(paper_system());
  EXPECT_FALSE(service.handle_cached(req, service.scenario_key(req)));
  EXPECT_EQ(service.stats().requests, 0u);
  EXPECT_EQ(service.stats().solve_requests, 0u);
  EXPECT_EQ(service.stats().cache_misses, 0u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(Service, ScenarioKeyIsTheCacheKey) {
  EvalService service(ServiceOptions{/*num_threads=*/3, 16, true, false});
  Json req = solve_request(paper_system());
  const gs::serve::ScenarioKey key = service.scenario_key(req);
  EXPECT_TRUE(key.warm);
  EXPECT_EQ(key.options.num_threads, 3);
  EXPECT_EQ(key.hash, gs::json::fnv1a64(key.canonical));
  EXPECT_EQ(key.canonical,
            gs::serve::canonical_scenario(paper_system(), key.options));
  EXPECT_EQ(service.handle(req).at("hash").as_string(),
            gs::json::hash_hex(key.hash));

  req.set("warm_start", false);
  EXPECT_FALSE(service.scenario_key(req).warm);
  EXPECT_EQ(service.scenario_key(req).hash, key.hash);

  // The key's errors are the solve op's errors.
  Json bad = Json::object();
  bad.set("op", "solve");
  try {
    service.scenario_key(bad);
    ADD_FAILURE() << "no error for a solve without a system";
  } catch (const gs::Error& e) {
    EXPECT_EQ(service.handle(bad).at("error").at("message").as_string(),
              e.what());
  }
}

TEST(Service, PerturbedSolveWarmStartsAndMatchesColdFixedPoint) {
  PaperKnobs knobs;
  knobs.arrival_rate = 0.44;
  const auto perturbed = paper_system(knobs);

  // Cold reference: a service with warm starts disabled.
  EvalService cold_service(ServiceOptions{/*num_threads=*/1, /*cache_capacity=*/16,
                            /*warm_start=*/false, /*deterministic=*/false});
  const Json cold =
      Json::parse(cold_service.handle_line(solve_request(perturbed).dump()));
  EXPECT_FALSE(cold.at("warm_started").as_bool());

  // Warm path: solve the base scenario first, then the perturbed one.
  EvalService service;
  service.handle_line(solve_request(paper_system()).dump());
  const Json warm =
      Json::parse(service.handle_line(solve_request(perturbed).dump()));
  EXPECT_FALSE(warm.at("cached").as_bool());
  EXPECT_TRUE(warm.at("warm_started").as_bool());
  EXPECT_LT(warm.at("iterations").as_int(), cold.at("iterations").as_int());
  EXPECT_EQ(service.stats().warm_starts, 1u);

  const auto& warm_classes = warm.at("result").at("per_class").as_array();
  const auto& cold_classes = cold.at("result").at("per_class").as_array();
  ASSERT_EQ(warm_classes.size(), cold_classes.size());
  for (std::size_t p = 0; p < warm_classes.size(); ++p) {
    EXPECT_NEAR(warm_classes[p].at("mean_jobs").as_double(),
                cold_classes[p].at("mean_jobs").as_double(), 1e-5);
  }
}

TEST(Service, PerRequestWarmStartOptOut) {
  EvalService service;
  service.handle_line(solve_request(paper_system()).dump());
  PaperKnobs knobs;
  knobs.arrival_rate = 0.44;
  Json req = solve_request(paper_system(knobs));
  req.set("warm_start", false);
  const Json resp = Json::parse(service.handle_line(req.dump()));
  EXPECT_FALSE(resp.at("warm_started").as_bool());
}

TEST(Service, ValidationFailureIsStructuredErrorAndServiceSurvives) {
  EvalService service;
  // P = 8, g = 3: SystemParams validation must reject this, as a JSON
  // error response rather than an escaping exception.
  const std::string bad = R"({"op":"solve","id":42,"system":{
    "processors": 8,
    "classes": [{
      "name": "c", "partition_size": 3,
      "arrival": {"dist":"exponential","rate":0.4},
      "service": {"dist":"exponential","rate":1},
      "quantum": {"dist":"erlang","stages":2,"mean":1},
      "overhead": {"dist":"exponential","rate":100}
    }]}})";
  const Json resp = Json::parse(service.handle_line(bad));
  ASSERT_NE(resp.find("error"), nullptr);
  EXPECT_EQ(resp.at("error").at("type").as_string(), "invalid_argument");
  EXPECT_EQ(resp.at("id").as_int(), 42);  // echoed for attribution
  EXPECT_EQ(service.stats().errors, 1u);

  // The daemon is still serving.
  const Json ok =
      Json::parse(service.handle_line(solve_request(paper_system()).dump()));
  EXPECT_EQ(ok.find("error"), nullptr);
}

TEST(Service, UnstableScenarioIsNumericalError) {
  PaperKnobs knobs;
  knobs.arrival_rate = 2.0;  // rho >= 1
  EvalService service;
  const Json resp =
      Json::parse(service.handle_line(solve_request(paper_system(knobs)).dump()));
  ASSERT_NE(resp.find("error"), nullptr);
  EXPECT_EQ(resp.at("error").at("type").as_string(), "numerical_error");
}

TEST(Service, MalformedJsonAndUnknownOpAreStructuredErrors) {
  EvalService service;
  const Json parse_err = Json::parse(service.handle_line("{not json"));
  ASSERT_NE(parse_err.find("error"), nullptr);
  EXPECT_EQ(parse_err.at("error").at("type").as_string(), "parse_error");

  const Json unknown = Json::parse(service.handle_line(R"({"op":"solv"})"));
  ASSERT_NE(unknown.find("error"), nullptr);
  EXPECT_NE(unknown.at("error").at("message").as_string().find(
                "did you mean 'solve'"),
            std::string::npos);

  const Json no_op = Json::parse(service.handle_line(R"({"x":1})"));
  ASSERT_NE(no_op.find("error"), nullptr);
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(Service, SweepMatchesDirectSweep) {
  const auto base = paper_system();
  Json req = Json::object();
  req.set("op", "sweep");
  req.set("system", gs::serve::params_to_json(base));
  Json vary = Json::object();
  vary.set("param", "quantum_mean");
  Json values = Json::array();
  for (const double x : {0.5, 1.0, 2.0}) values.push_back(x);
  vary.set("values", std::move(values));
  req.set("vary", std::move(vary));

  EvalService service;
  const Json resp = Json::parse(service.handle_line(req.dump()));
  ASSERT_EQ(resp.find("error"), nullptr) << resp.dump();
  const auto& points = resp.at("points").as_array();
  ASSERT_EQ(points.size(), 3u);

  // The service warm-chains its sweeps (ServiceOptions::warm_start, on by
  // default); the direct sweep must run under the same options for the
  // bitwise comparison to be meaningful.
  gs::workload::SweepOptions direct_opts;
  direct_opts.warm_chain = true;
  const auto direct = gs::workload::sweep(
      {0.5, 1.0, 2.0},
      [&](double x) {
        std::vector<gs::gang::ClassParams> classes = base.classes();
        for (auto& c : classes)
          c.quantum = c.quantum.scaled(x / c.quantum.mean());
        return gs::gang::SystemParams(base.processors(), std::move(classes));
      },
      direct_opts);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(points[i].find("error"), nullptr);
    const auto& n = points[i].at("mean_jobs").as_array();
    ASSERT_EQ(n.size(), direct[i].model_n.size());
    for (std::size_t p = 0; p < n.size(); ++p)
      EXPECT_EQ(n[p].as_double(), direct[i].model_n[p]);  // bitwise
  }
  EXPECT_EQ(service.stats().sweep_points, 3u);
}

TEST(Service, SweepUnknownParamIsOneError) {
  EvalService service;
  Json req = Json::object();
  req.set("op", "sweep");
  req.set("system", gs::serve::params_to_json(paper_system()));
  Json vary = Json::object();
  vary.set("param", "quantum_men");
  Json values = Json::array();
  values.push_back(1.0);
  vary.set("values", std::move(values));
  req.set("vary", std::move(vary));
  const Json resp = Json::parse(service.handle_line(req.dump()));
  ASSERT_NE(resp.find("error"), nullptr);
  EXPECT_NE(resp.at("error").at("message").as_string().find("quantum_mean"),
            std::string::npos);
}

TEST(Service, StatsAndShutdownSurface) {
  EvalService service;
  const std::string req = solve_request(paper_system()).dump();
  service.handle_line(req);
  service.handle_line(req);
  const Json stats = Json::parse(service.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.at("requests").as_int(), 3);
  EXPECT_EQ(stats.at("ops").at("solve").as_int(), 2);
  EXPECT_EQ(stats.at("cache").at("hits").as_int(), 1);
  EXPECT_EQ(stats.at("cache").at("misses").as_int(), 1);
  EXPECT_EQ(stats.at("cache").at("size").as_int(), 1);
  const auto& entries = stats.at("cache").at("entries").as_array();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].at("hits").as_int(), 1);
  EXPECT_NE(stats.find("latency_ms"), nullptr);

  EXPECT_FALSE(service.shutdown_requested());
  const Json bye = Json::parse(service.handle_line(R"({"op":"shutdown"})"));
  EXPECT_TRUE(bye.at("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
  EXPECT_NE(service.summary().find("4 requests"), std::string::npos);
}

TEST(Service, DeterministicModeOmitsTimings) {
  ServiceOptions opts;
  opts.deterministic = true;
  EvalService service(opts);
  const Json resp =
      Json::parse(service.handle_line(solve_request(paper_system()).dump()));
  EXPECT_EQ(resp.find("ms"), nullptr);
  const Json stats = Json::parse(service.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.find("latency_ms"), nullptr);
}

TEST(Service, CacheEvictionKeepsServingCorrectResults) {
  ServiceOptions opts;
  opts.cache_capacity = 2;
  EvalService service(opts);
  PaperKnobs knobs;
  std::vector<std::string> reqs;
  for (const double rate : {0.3, 0.35, 0.4}) {
    knobs.arrival_rate = rate;
    reqs.push_back(solve_request(paper_system(knobs)).dump());
  }
  for (const auto& r : reqs) service.handle_line(r);
  // First scenario was evicted (capacity 2): re-solving misses but works.
  const Json again = Json::parse(service.handle_line(reqs[0]));
  EXPECT_FALSE(again.at("cached").as_bool());
  EXPECT_EQ(service.cache().evictions(), 2u);

  // And an actual repeat of the most recent scenario still hits.
  const Json hit = Json::parse(service.handle_line(reqs[0]));
  EXPECT_TRUE(hit.at("cached").as_bool());
}

TEST(Service, TuneAnswersWithOptimalQuantum) {
  EvalService service;
  Json req = Json::object();
  req.set("op", "tune");
  req.set("system", gs::serve::params_to_json(paper_system()));
  req.set("mode", "common");
  Json topts = Json::object();
  topts.set("quantum_min", 0.2);
  topts.set("quantum_max", 4.0);
  topts.set("bracket_points", 5);
  topts.set("tol", 0.05);
  req.set("tune", std::move(topts));
  const Json resp = Json::parse(service.handle_line(req.dump()));
  ASSERT_EQ(resp.find("error"), nullptr) << resp.dump();
  const auto& quanta = resp.at("quantum_means").as_array();
  ASSERT_EQ(quanta.size(), 4u);
  EXPECT_GT(quanta[0].as_double(), 0.0);
  EXPECT_GT(resp.at("evaluations").as_int(), 0);
  EXPECT_GT(resp.at("result").at("total_mean_jobs").as_double(), 0.0);
}

Json batch_request(const std::vector<gs::gang::SystemParams>& systems) {
  Json req = Json::object();
  req.set("op", "solve_batch");
  Json items = Json::array();
  for (const auto& sys : systems) {
    Json item = Json::object();
    item.set("system", gs::serve::params_to_json(sys));
    items.push_back(std::move(item));
  }
  req.set("items", std::move(items));
  return req;
}

std::vector<gs::gang::SystemParams> perturbed_systems(
    std::initializer_list<double> rates) {
  std::vector<gs::gang::SystemParams> systems;
  for (const double rate : rates) {
    PaperKnobs knobs;
    knobs.arrival_rate = rate;
    systems.push_back(paper_system(knobs));
  }
  return systems;
}

TEST(Service, SolveBatchMatchesPerItemSolvesBitwise) {
  // Every per-item result must be the bytes a sequence of individual
  // solves would have sent.
  // Warm starts are off on both sides so each item solves cold either
  // way (otherwise the sequential service would warm item 2 from item 1
  // while the batch solves all three cold).
  ServiceOptions no_warm;
  no_warm.warm_start = false;
  const auto systems = perturbed_systems({0.3, 0.35, 0.4});

  EvalService scalar_service(no_warm);
  std::vector<Json> want;
  for (const auto& sys : systems)
    want.push_back(
        Json::parse(scalar_service.handle_line(solve_request(sys).dump())));

  EvalService service(no_warm);
  const Json resp =
      Json::parse(service.handle_line(batch_request(systems).dump()));
  ASSERT_EQ(resp.find("error"), nullptr) << resp.dump();
  const auto& results = resp.at("results").as_array();
  ASSERT_EQ(results.size(), systems.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    const Json& got = results[i];
    EXPECT_FALSE(got.at("cached").as_bool());
    EXPECT_EQ(got.find("batched"), nullptr);
    EXPECT_EQ(got.at("hash").as_string(), want[i].at("hash").as_string());
    EXPECT_EQ(got.at("iterations").as_int(),
              want[i].at("iterations").as_int());
    EXPECT_EQ(got.at("result").dump(), want[i].at("result").dump());
  }
  EXPECT_EQ(service.stats().batch_requests, 1u);
  EXPECT_EQ(service.stats().batch_items, 3u);
  EXPECT_EQ(service.stats().solves_executed, 3u);
}

TEST(Service, SolveBatchFillsCachePerLane) {
  // Every item of a batch caches as if solved alone: individual repeats
  // hit, and a repeat of the whole batch is answered entirely from cache.
  EvalService service;
  const auto systems = perturbed_systems({0.3, 0.35, 0.4});
  service.handle_line(batch_request(systems).dump());
  EXPECT_EQ(service.cache().size(), 3u);

  const Json single =
      Json::parse(service.handle_line(solve_request(systems[1]).dump()));
  EXPECT_TRUE(single.at("cached").as_bool());

  const Json again =
      Json::parse(service.handle_line(batch_request(systems).dump()));
  for (const Json& r : again.at("results").as_array())
    EXPECT_TRUE(r.at("cached").as_bool());
  EXPECT_EQ(service.stats().solves_executed, 3u);  // only the first batch
}

TEST(Service, SolveBatchAnswersHitsFromCacheAndSolvesTheRest) {
  EvalService service;
  const auto systems = perturbed_systems({0.3, 0.35});
  service.handle_line(solve_request(systems[0]).dump());

  const Json resp =
      Json::parse(service.handle_line(batch_request(systems).dump()));
  const auto& results = resp.at("results").as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].at("cached").as_bool());
  EXPECT_EQ(results[0].at("hits").as_int(), 1);
  EXPECT_FALSE(results[1].at("cached").as_bool());
  ASSERT_EQ(results[1].find("error"), nullptr);
}

TEST(Service, SolveBatchWarmStartsFromPriorSolveBitwise) {
  // A batch miss with a same-structure donor in the warm index must run
  // exactly GangSolver::solve_warm on the donor's final slices.
  const auto base = paper_system();
  PaperKnobs knobs;
  knobs.arrival_rate = 0.44;
  const auto perturbed = paper_system(knobs);
  const SolveReport donor = GangSolver(base).solve();
  const SolveReport direct =
      GangSolver(perturbed).solve_warm(donor.final_slices);

  EvalService service;
  service.handle_line(solve_request(base).dump());
  const Json resp =
      Json::parse(service.handle_line(batch_request({perturbed}).dump()));
  const Json& got = resp.at("results").as_array()[0];
  EXPECT_FALSE(got.at("cached").as_bool());
  EXPECT_TRUE(got.at("warm_started").as_bool());
  EXPECT_EQ(got.at("iterations").as_int(), direct.iterations);
  const auto& per_class = got.at("result").at("per_class").as_array();
  for (std::size_t p = 0; p < per_class.size(); ++p)
    EXPECT_EQ(per_class[p].at("mean_jobs").as_double(),
              direct.per_class[p].mean_jobs);  // bitwise
}

TEST(Service, SolveBatchUnstableItemGetsErrorStringOthersSucceed) {
  // One unstable item must not poison the batch: its item carries the
  // scalar error string, the others answer, and the daemon stays up.
  EvalService service;
  const auto systems = perturbed_systems({0.3, 2.0, 0.4});
  const Json resp =
      Json::parse(service.handle_line(batch_request(systems).dump()));
  ASSERT_EQ(resp.find("error"), nullptr) << resp.dump();
  const auto& results = resp.at("results").as_array();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].find("error"), nullptr);
  ASSERT_NE(results[1].find("error"), nullptr);
  EXPECT_FALSE(results[1].at("error").as_string().empty());
  EXPECT_EQ(results[2].find("error"), nullptr);
  EXPECT_EQ(service.stats().solves_executed, 2u);

  const Json ok =
      Json::parse(service.handle_line(solve_request(systems[0]).dump()));
  EXPECT_TRUE(ok.at("cached").as_bool());  // healthy items filled the cache
}

TEST(Service, SolveBatchMalformedItemIsOneStructuredError) {
  // Items are validated before anything solves: a bad item fails the
  // whole request with one error and no partial cache fills.
  EvalService service;
  Json req = Json::object();
  req.set("op", "solve_batch");
  Json items = Json::array();
  Json good = Json::object();
  good.set("system", gs::serve::params_to_json(paper_system()));
  items.push_back(std::move(good));
  Json bad = Json::object();
  bad.set("note", "no system field");
  items.push_back(std::move(bad));
  req.set("items", std::move(items));
  const Json resp = Json::parse(service.handle_line(req.dump()));
  ASSERT_NE(resp.find("error"), nullptr);
  EXPECT_EQ(resp.at("error").at("type").as_string(), "invalid_argument");
  EXPECT_EQ(service.stats().solves_executed, 0u);
  EXPECT_EQ(service.cache().size(), 0u);

  const Json empty = Json::parse(
      service.handle_line(R"({"op":"solve_batch","items":[]})"));
  ASSERT_NE(empty.find("error"), nullptr);
}

TEST(Service, SweepUnknownKeyGetsDidYouMeanHint) {
  // Dispatch-tuning keys change speed, never answers — a silently
  // dropped typo would look like a correct-but-slow request, so the
  // sweep op rejects unknown keys with a nearest-match hint.
  EvalService service;
  Json req = Json::object();
  req.set("op", "sweep");
  req.set("system", gs::serve::params_to_json(paper_system()));
  Json vary = Json::object();
  vary.set("param", "quantum_mean");
  Json values = Json::array();
  values.push_back(1.0);
  vary.set("values", std::move(values));
  req.set("vary", std::move(vary));
  req.set("chain_strid", 4);
  const Json resp = Json::parse(service.handle_line(req.dump()));
  ASSERT_NE(resp.find("error"), nullptr);
  EXPECT_NE(resp.at("error").at("message").as_string().find(
                "did you mean 'chain_stride'"),
            std::string::npos)
      << resp.dump();
}

TEST(Service, SweepAcceptsChainStrideWithoutMovingFixedPoints) {
  const auto make_req = [] {
    Json req = Json::object();
    req.set("op", "sweep");
    req.set("system", gs::serve::params_to_json(paper_system()));
    Json vary = Json::object();
    vary.set("param", "quantum_mean");
    Json values = Json::array();
    for (const double x : {0.5, 0.8, 1.1, 1.4, 1.7, 2.0})
      values.push_back(x);
    vary.set("values", std::move(values));
    req.set("vary", std::move(vary));
    return req;
  };
  EvalService plain_service;
  const Json plain =
      Json::parse(plain_service.handle_line(make_req().dump()));
  ASSERT_EQ(plain.find("error"), nullptr) << plain.dump();

  // chain_stride moves the warm-chain anchors, so warm-started rows take
  // a different iteration path to the same fixed point (within tol) —
  // accepted, answered, and numerically equivalent rather than bitwise.
  Json strided_req = make_req();
  strided_req.set("chain_stride", 2);
  EvalService strided_service;
  const Json strided =
      Json::parse(strided_service.handle_line(strided_req.dump()));
  ASSERT_EQ(strided.find("error"), nullptr) << strided.dump();
  const auto& a = strided.at("points").as_array();
  const auto& b = plain.at("points").as_array();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i].at("total_mean_jobs").as_double(),
                b[i].at("total_mean_jobs").as_double(), 1e-4);

  Json bad = make_req();
  bad.set("chain_stride", 0);
  EvalService bad_service;
  const Json err = Json::parse(bad_service.handle_line(bad.dump()));
  ASSERT_NE(err.find("error"), nullptr);
}

TEST(Service, BatchWidthIsRejectedOnSweepAndSolveBatch) {
  // Lane batching is gone; a request that still names its width gets a
  // structured invalid_argument saying so, on both ops that took it.
  Json sweep_req = Json::object();
  sweep_req.set("op", "sweep");
  sweep_req.set("system", gs::serve::params_to_json(paper_system()));
  Json vary = Json::object();
  vary.set("param", "quantum_mean");
  Json values = Json::array();
  values.push_back(1.0);
  vary.set("values", std::move(values));
  sweep_req.set("vary", std::move(vary));
  sweep_req.set("batch_width", 4);
  Json batch_req = batch_request(perturbed_systems({0.3}));
  batch_req.set("batch_width", 4);
  for (const Json& req : {sweep_req, batch_req}) {
    SCOPED_TRACE(req.at("op").as_string());
    EvalService service;
    const Json resp = Json::parse(service.handle_line(req.dump()));
    ASSERT_NE(resp.find("error"), nullptr) << resp.dump();
    EXPECT_EQ(resp.at("error").at("type").as_string(), "invalid_argument");
    EXPECT_NE(resp.at("error").at("message").as_string().find(
                  "lane batching was removed"),
              std::string::npos)
        << resp.dump();
    EXPECT_EQ(service.stats().solves_executed, 0u);
  }
}

TEST(Service, StatsCountsSolveBatchOp) {
  EvalService service;
  service.handle_line(batch_request(perturbed_systems({0.3, 0.35})).dump());
  const Json stats = Json::parse(service.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.at("ops").at("solve_batch").as_int(), 1);
  EXPECT_NE(service.summary().find("1 solve_batch/2 items"),
            std::string::npos)
      << service.summary();
}

TEST(Service, StreamLoopAnswersLineByLineAndStopsOnShutdown) {
  std::istringstream in(
      solve_request(paper_system()).dump() + "\n" +
      "\n" +  // blank lines are skipped
      R"({"op":"stats"})" "\n"
      R"({"op":"shutdown"})" "\n"
      R"({"op":"stats"})" "\n");  // after shutdown: never read
  std::ostringstream out;
  EvalService service;
  gs::serve::serve_stream(service, in, out);
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NO_THROW(Json::parse(line)) << line;
  }
  EXPECT_EQ(count, 3);  // solve, stats, shutdown ack — not the 4th request
  EXPECT_TRUE(service.shutdown_requested());
}

}  // namespace
