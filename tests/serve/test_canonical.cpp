// Canonical serialization + scenario hashing: round-trip equality,
// representation- and order-stability, and a pinned hash for the paper's
// Figure 2 configuration (a regression guard: if this moves, every
// previously cached scenario silently misses).
#include "serve/canonical.hpp"

#include <gtest/gtest.h>

#include "phase/builders.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"

namespace {

using gs::gang::GangSolveOptions;
using gs::gang::SystemParams;
using gs::json::Json;
using gs::serve::canonical_scenario;
using gs::serve::EvalService;
using gs::serve::options_from_json;
using gs::serve::options_to_json;
using gs::serve::params_from_json;
using gs::serve::params_to_json;
using gs::serve::phase_from_json;
using gs::serve::phase_to_json;
using gs::serve::scenario_hash;
using gs::serve::ServiceOptions;
using gs::serve::structure_hash;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;

// scenario_hash of the paper's Figure 2 configuration with default
// options, as persisted snapshots and tools/smoke_golden.ndjson carry it.
constexpr const char* kFigure2Hash = "39dd79e7db7bf4f9";

TEST(Canonical, PhaseRoundTripIsExact) {
  const auto ph = gs::phase::erlang(3, 1.7);
  const auto back = phase_from_json(phase_to_json(ph));
  EXPECT_EQ(phase_to_json(back).dump(), phase_to_json(ph).dump());
  EXPECT_EQ(back.mean(), ph.mean());  // bitwise, not approximate
}

TEST(Canonical, BuilderShorthandsNormalizeToRawForm) {
  const Json shorthand =
      Json::parse(R"({"dist":"erlang","stages":2,"mean":1})");
  const auto built = phase_from_json(shorthand);
  const auto direct = gs::phase::erlang(2, 1.0);
  EXPECT_EQ(phase_to_json(built).dump(), phase_to_json(direct).dump());

  const Json expo = Json::parse(R"({"dist":"exponential","rate":0.4})");
  EXPECT_EQ(phase_to_json(phase_from_json(expo)).dump(),
            phase_to_json(gs::phase::exponential(0.4)).dump());
}

TEST(Canonical, UnknownDistKindGetsHint) {
  try {
    phase_from_json(Json::parse(R"({"dist":"erlan","stages":2,"mean":1})"));
    FAIL() << "expected InvalidArgument";
  } catch (const gs::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'erlang'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Canonical, ParamsRoundTripPreservesCanonicalFormAndHash) {
  const SystemParams sys = paper_system();
  const Json j = params_to_json(sys);
  const SystemParams back = params_from_json(j);
  EXPECT_EQ(params_to_json(back).dump(), j.dump());
  EXPECT_EQ(scenario_hash(back, {}), scenario_hash(sys, {}));
  EXPECT_EQ(back.processors(), sys.processors());
  EXPECT_EQ(back.num_classes(), sys.num_classes());
}

TEST(Canonical, OptionsRoundTripAndUnknownKeyRejected) {
  GangSolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iterations = 33;
  opts.eff_mode = gs::gang::EffQuantumMode::kExact;
  opts.qbd.r_options.tol = 1e-12;
  opts.qbd.r_options.max_iter = 500;
  const GangSolveOptions back = options_from_json(options_to_json(opts));
  EXPECT_EQ(options_to_json(back).dump(), options_to_json(opts).dump());

  try {
    options_from_json(Json::parse(R"({"max_iteration":10})"));
    FAIL() << "expected InvalidArgument";
  } catch (const gs::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'max_iterations'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Canonical, HashIsOrderAndRepresentationStable) {
  // Same scenario written two ways: shuffled field order, builder
  // shorthands vs raw generators, default options implicit vs explicit.
  const char* verbose = R"({
    "classes": [{
      "quantum": {"dist":"erlang","stages":2,"mean":1},
      "partition_size": 1,
      "service": {"dist":"exponential","rate":1},
      "overhead": {"dist":"exponential","rate":100},
      "name": "only",
      "arrival": {"dist":"exponential","rate":0.25}
    }],
    "processors": 1
  })";
  const char* raw = R"({
    "processors": 1,
    "classes": [{
      "name": "only",
      "partition_size": 1,
      "arrival": {"alpha":[1],"s":[[-0.25]]},
      "service": {"alpha":[1],"s":[[-1]]},
      "quantum": {"alpha":[1,0],"s":[[-2,2],[0,-2]]},
      "overhead": {"alpha":[1],"s":[[-100]]}
    }]
  })";
  const SystemParams a = params_from_json(Json::parse(verbose));
  const SystemParams b = params_from_json(Json::parse(raw));
  EXPECT_EQ(canonical_scenario(a, {}), canonical_scenario(b, {}));
  EXPECT_EQ(scenario_hash(a, {}), scenario_hash(b, {}));
  EXPECT_EQ(scenario_hash(a, options_from_json(Json(nullptr))),
            scenario_hash(a, options_from_json(
                                 Json::parse(R"({"tol":1e-6})"))));
}

TEST(Canonical, HashSeparatesScenariosAndOptions) {
  const SystemParams base = paper_system();
  PaperKnobs knobs;
  knobs.arrival_rate = 0.41;
  const SystemParams perturbed = paper_system(knobs);
  EXPECT_NE(scenario_hash(base, {}), scenario_hash(perturbed, {}));

  GangSolveOptions tight;
  tight.tol = 1e-9;
  EXPECT_NE(scenario_hash(base, {}), scenario_hash(base, tight));

  // num_threads cannot change the answer, so it must not change the hash.
  GangSolveOptions threaded;
  threaded.num_threads = 8;
  EXPECT_EQ(scenario_hash(base, {}), scenario_hash(base, threaded));
}

TEST(Canonical, PinnedFigure2Hash) {
  // The canonical hash of the paper's Figure 2 configuration with default
  // options. A change here invalidates every persisted cache and golden
  // file — move it knowingly or not at all.
  const std::uint64_t h = scenario_hash(paper_system(), {});
  EXPECT_EQ(gs::json::hash_hex(h), gs::json::hash_hex(scenario_hash(
                                       params_from_json(params_to_json(
                                           paper_system())),
                                       {})));
  // Stability across processes/runs (FNV over canonical text is pure).
  EXPECT_EQ(h, scenario_hash(paper_system(), {}));
}

TEST(Canonical, LogreductionIsTheOnlyRAlgorithm) {
  // Naming the one R algorithm and leaving the key out are the same
  // scenario, and both hash exactly as they did while r_method still
  // selected among four algorithms (the canonical form keeps the member).
  const std::uint64_t absent = scenario_hash(paper_system(), {});
  const std::uint64_t named = scenario_hash(
      paper_system(),
      options_from_json(Json::parse(R"({"qbd":{"r_method":"logreduction"}})")));
  EXPECT_EQ(gs::json::hash_hex(absent), kFigure2Hash);
  EXPECT_EQ(gs::json::hash_hex(named), kFigure2Hash);
  EXPECT_NE(canonical_scenario(paper_system(), {})
                .find(R"("r_method":"logreduction")"),
            std::string::npos);

  for (const char* method :
       {"newton", "cyclic_reduction", "substitution", "log_reduction"}) {
    SCOPED_TRACE(method);
    Json qbd = Json::object();
    qbd.set("r_method", method);
    Json opts = Json::object();
    opts.set("qbd", std::move(qbd));
    try {
      options_from_json(opts);
      FAIL() << "expected InvalidArgument";
    } catch (const gs::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("'logreduction'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Canonical, RemovedRAlgorithmIsAStructuredErrorOnEveryOp) {
  EvalService service(ServiceOptions{/*num_threads=*/1, /*capacity=*/16,
                                     /*warm_start=*/true,
                                     /*deterministic=*/true});
  const Json system = params_to_json(paper_system());
  const char* ops[] = {"solve", "solve_batch", "sweep", "tune"};
  for (const char* method : {"newton", "cyclic_reduction", "substitution"}) {
    for (const char* op : ops) {
      SCOPED_TRACE(std::string(op) + " with r_method " + method);
      Json qbd = Json::object();
      qbd.set("r_method", method);
      Json options = Json::object();
      options.set("qbd", std::move(qbd));
      Json req = Json::object();
      req.set("op", op);
      if (std::string(op) == "solve_batch") {
        Json item = Json::object();
        item.set("system", system);
        item.set("options", std::move(options));
        Json items = Json::array();
        items.push_back(std::move(item));
        req.set("items", std::move(items));
      } else {
        req.set("system", system);
        req.set("options", std::move(options));
      }
      if (std::string(op) == "sweep") {
        req.set("vary", Json::parse(
                            R"({"param":"quantum_mean","values":[1,2]})"));
      }
      const Json resp = Json::parse(service.handle_line(req.dump()));
      const Json* error = resp.find("error");
      ASSERT_NE(error, nullptr) << resp.dump();
      EXPECT_EQ(error->at("type").as_string(), "invalid_argument");
      EXPECT_NE(error->at("message").as_string().find("'logreduction'"),
                std::string::npos)
          << resp.dump();
    }
  }
  EXPECT_EQ(service.stats().solves_executed, 0u);
}

TEST(Canonical, StructureHashIgnoresRatesButNotShapes) {
  const SystemParams base = paper_system();
  PaperKnobs knobs;
  knobs.arrival_rate = 0.44;
  knobs.service_scale = 1.3;
  const SystemParams perturbed = paper_system(knobs);
  EXPECT_EQ(structure_hash(base, {}), structure_hash(perturbed, {}));

  PaperKnobs reshaped;
  reshaped.quantum_stages = 3;  // changes a PH order, not just a rate
  EXPECT_NE(structure_hash(base, {}),
            structure_hash(paper_system(reshaped), {}));

  GangSolveOptions tight;
  tight.tol = 1e-9;  // different options -> different fixed point target
  EXPECT_NE(structure_hash(base, {}), structure_hash(base, tight));
}

TEST(Canonical, InvalidParamsStillThrowInvalidArgument) {
  // P = 8 with g = 3 does not divide: the validation error of
  // SystemParams must surface through the JSON boundary.
  const char* bad = R"({
    "processors": 8,
    "classes": [{
      "name": "c", "partition_size": 3,
      "arrival": {"dist":"exponential","rate":0.4},
      "service": {"dist":"exponential","rate":1},
      "quantum": {"dist":"erlang","stages":2,"mean":1},
      "overhead": {"dist":"exponential","rate":100}
    }]
  })";
  EXPECT_THROW(params_from_json(Json::parse(bad)), gs::InvalidArgument);

  // Non-stochastic PH input (negative rate).
  const char* bad_ph = R"({
    "processors": 1,
    "classes": [{
      "name": "c", "partition_size": 1,
      "arrival": {"alpha":[1],"s":[[0.25]]},
      "service": {"dist":"exponential","rate":1},
      "quantum": {"dist":"erlang","stages":2,"mean":1},
      "overhead": {"dist":"exponential","rate":100}
    }]
  })";
  EXPECT_THROW(params_from_json(Json::parse(bad_ph)), gs::InvalidArgument);
}

}  // namespace
