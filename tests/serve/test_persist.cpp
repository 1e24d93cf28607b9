// Cache persistence round-trip: a save_cache snapshot restored into a
// fresh service reproduces cache hits (byte-identical responses), the
// warm-start donor index, LRU order under capacity pressure, and the
// per-entry hit counters. Lines from another solver revision load as
// misses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <sstream>

#include "json/json.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "workload/paper_configs.hpp"
#include "serve/canonical.hpp"

namespace {

using gs::json::Json;
using gs::serve::EvalService;
using gs::serve::ServiceOptions;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;

std::string solve_line(double arrival_rate, double quantum_mean = 1.0) {
  PaperKnobs knobs;
  knobs.arrival_rate = arrival_rate;
  knobs.quantum_mean = quantum_mean;
  Json req = Json::object();
  req.set("op", "solve");
  req.set("system", gs::serve::params_to_json(paper_system(knobs)));
  return req.dump();
}

ServiceOptions deterministic_options(std::size_t capacity = 16) {
  return ServiceOptions{/*num_threads=*/1, capacity,
                        /*warm_start=*/true, /*deterministic=*/true};
}

TEST(CachePersistence, RoundTripAnswersFromCacheByteForByte) {
  EvalService original(deterministic_options());
  const std::string req = solve_line(0.40);
  const std::string solved = original.handle_line(req);
  const std::string cached = original.handle_line(req);
  ASSERT_TRUE(Json::parse(cached).at("cached").as_bool());

  std::stringstream snapshot;
  EXPECT_EQ(original.save_cache(snapshot), 1u);

  EvalService restored(deterministic_options());
  EXPECT_EQ(restored.load_cache(snapshot), 1u);
  EXPECT_EQ(restored.cache().size(), 1u);

  // The warm-booted service answers the scenario from cache — and,
  // because doubles round-trip bitwise through the snapshot, the
  // response is byte-identical to the original's cached answer except
  // for the hit counter, which keeps counting from the saved value.
  const std::string replayed = restored.handle_line(req);
  const Json r = Json::parse(replayed);
  EXPECT_TRUE(r.at("cached").as_bool());
  EXPECT_EQ(r.at("hits").as_int(), 2);  // 1 saved + this hit
  EXPECT_EQ(r.at("result").dump(),
            Json::parse(cached).at("result").dump());
  EXPECT_EQ(restored.stats().solves_executed, 0u)
      << "a warm boot must not re-solve its old working set";
}

TEST(CachePersistence, WarmStartDonorsSurviveTheRestart) {
  EvalService original(deterministic_options());
  original.handle_line(solve_line(0.40));

  std::stringstream snapshot;
  original.save_cache(snapshot);

  // A perturbed scenario (same structure, new arrival rate) must
  // warm-start from the restored donor exactly as it would have in the
  // original process.
  EvalService restored(deterministic_options());
  restored.load_cache(snapshot);
  const Json warm = Json::parse(restored.handle_line(solve_line(0.41)));
  EXPECT_FALSE(warm.at("cached").as_bool());
  EXPECT_TRUE(warm.at("warm_started").as_bool());

  EvalService cold(deterministic_options());
  const Json reference = Json::parse(cold.handle_line(solve_line(0.41)));
  EXPECT_LT(warm.at("iterations").as_int(), reference.at("iterations").as_int());
}

TEST(CachePersistence, LruOrderAndHitCountsSurvive) {
  EvalService original(deterministic_options());
  original.handle_line(solve_line(0.40));  // entry A
  original.handle_line(solve_line(0.41));  // entry B
  original.handle_line(solve_line(0.40));  // hit A -> A most recent
  original.handle_line(solve_line(0.40));  // hit A again

  std::stringstream snapshot;
  EXPECT_EQ(original.save_cache(snapshot), 2u);

  EvalService restored(deterministic_options());
  EXPECT_EQ(restored.load_cache(snapshot), 2u);

  const auto original_entries = original.cache().entries();
  const auto restored_entries = restored.cache().entries();
  ASSERT_EQ(restored_entries.size(), original_entries.size());
  for (std::size_t i = 0; i < original_entries.size(); ++i) {
    EXPECT_EQ(restored_entries[i]->key, original_entries[i]->key);
    EXPECT_EQ(restored_entries[i]->hits, original_entries[i]->hits);
    EXPECT_EQ(restored_entries[i]->scenario, original_entries[i]->scenario);
  }
}

TEST(CachePersistence, CapacityPressureEvictsOldestSnapshotEntries) {
  EvalService original(deterministic_options(/*capacity=*/8));
  for (int i = 0; i < 4; ++i)
    original.handle_line(solve_line(0.40 + 0.01 * i));

  std::stringstream snapshot;
  EXPECT_EQ(original.save_cache(snapshot), 4u);

  // Restoring into a 2-entry cache keeps exactly the 2 most recently
  // used scenarios — the snapshot replays in LRU order, so eviction
  // falls on the oldest entries, as if the solves had happened live.
  EvalService tiny(deterministic_options(/*capacity=*/2));
  EXPECT_EQ(tiny.load_cache(snapshot), 4u);
  EXPECT_EQ(tiny.cache().size(), 2u);
  const auto kept = tiny.cache().entries();
  const auto originals = original.cache().entries();
  EXPECT_EQ(kept[0]->key, originals[0]->key);
  EXPECT_EQ(kept[1]->key, originals[1]->key);
}

TEST(CachePersistence, MalformedSnapshotThrowsWithLineNumber) {
  EvalService service(deterministic_options());
  std::stringstream bad("{\"scenario\":{},\"hits\":0,\"report\":{}}\n");
  try {
    service.load_cache(bad);
    FAIL() << "malformed snapshot must throw";
  } catch (const gs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }

  std::stringstream garbage("not json at all\n");
  EXPECT_THROW(service.load_cache(garbage), gs::Error);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(CachePersistence, EmptySnapshotIsAValidColdStart) {
  EvalService service(deterministic_options());
  std::stringstream empty;
  EXPECT_EQ(service.load_cache(empty), 0u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(CachePersistence, FileRoundTripViaHelpers) {
  const std::string path = ::testing::TempDir() + "gs_cache_snapshot.ndjson";
  EvalService original(deterministic_options());
  original.handle_line(solve_line(0.40));
  EXPECT_EQ(original.save_cache_file(path), 1u);

  EvalService restored(deterministic_options());
  EXPECT_EQ(restored.load_cache_file(path), 1u);
  EXPECT_TRUE(Json::parse(restored.handle_line(solve_line(0.40)))
                  .at("cached")
                  .as_bool());
  ::unlink(path.c_str());

  EXPECT_THROW(restored.load_cache_file(path + ".missing"), gs::Error);
}

TEST(CachePersistence, UnstampedSnapshotLineLoadsAsAMiss) {
  // A line written before snapshots carried a solver revision: the
  // Figure 2 system at quantum 4, whose plain-iteration report stopped
  // unconverged after 60 iterations. Serving it after a warm boot would
  // replay that stale answer, so it must be skipped and the scenario
  // solved afresh.
  std::ifstream in(GS_SERVE_TEST_DATA "/snapshot_unstamped.ndjson");
  ASSERT_TRUE(in) << "missing checked-in snapshot";
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const Json old = Json::parse(line);
  ASSERT_EQ(old.find("solver_revision"), nullptr);
  ASSERT_FALSE(old.at("report").at("converged").as_bool());

  EvalService service(deterministic_options());
  std::stringstream snapshot(line + "\n");
  EXPECT_EQ(service.load_cache(snapshot), 0u);
  EXPECT_EQ(service.cache().size(), 0u);

  const Json r = Json::parse(service.handle_line(solve_line(0.40, 4.0)));
  EXPECT_EQ(r.at("hash").as_string(),
            gs::json::hash_hex(gs::json::fnv1a64(old.at("scenario").dump())))
      << "the request must name the snapshot's scenario";
  EXPECT_FALSE(r.at("cached").as_bool());
  EXPECT_FALSE(r.at("warm_started").as_bool())
      << "a skipped line must not seed the warm-start index either";
  EXPECT_TRUE(r.at("converged").as_bool());
  EXPECT_EQ(service.stats().solves_executed, 1u);
}

TEST(CachePersistence, OtherSolverRevisionIsSkippedCurrentOneLoads) {
  EvalService original(deterministic_options());
  original.handle_line(solve_line(0.40));
  original.handle_line(solve_line(0.41));
  std::stringstream snapshot;
  ASSERT_EQ(original.save_cache(snapshot), 2u);

  // Re-stamp the first line with a different revision; the second keeps
  // the current one.
  std::string first, second;
  std::getline(snapshot, first);
  std::getline(snapshot, second);
  Json restamped = Json::parse(first);
  ASSERT_NE(restamped.find("solver_revision"), nullptr);
  restamped.set("solver_revision",
                restamped.at("solver_revision").as_int() + 1);

  EvalService restored(deterministic_options());
  std::stringstream mixed(restamped.dump() + "\n" + second + "\n");
  EXPECT_EQ(restored.load_cache(mixed), 1u);
  EXPECT_EQ(restored.cache().size(), 1u);
  EXPECT_FALSE(Json::parse(restored.handle_line(solve_line(0.40)))
                   .at("cached")
                   .as_bool());
  EXPECT_TRUE(Json::parse(restored.handle_line(solve_line(0.41)))
                  .at("cached")
                  .as_bool());
}

}  // namespace
