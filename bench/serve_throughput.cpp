// Service-layer timings through the full NDJSON path (serialize, hash,
// cache, solve): cold vs cached vs warm-started solve latency on the
// paper's Figure 2 system, and sweep throughput with the service pool at
// 1, 4, and 8 threads. The claims the serve/ subsystem makes are checked
// in-bench and recorded in BENCH_serve.json (to argv[1] or the working
// directory):
//   - a cache hit skips the solver entirely,
//   - a warm-started perturbed solve takes fewer fixed-point iterations
//     than the same solve cold while landing on the same answer (mean
//     job counts within solver tolerance),
//   - sweep results are bitwise identical at every thread count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gang/solver.hpp"
#include "json/json.hpp"
#include "obs/obs.hpp"
#include "serve/canonical.hpp"
#include "serve/service.hpp"
#include "workload/paper_configs.hpp"

namespace {

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

Json sweep_request(const gs::gang::SystemParams& sys,
                   const std::vector<double>& quanta) {
  Json req = Json::object();
  req.set("op", "sweep");
  req.set("system", gs::serve::params_to_json(sys));
  Json vary = Json::object();
  vary.set("param", "quantum_mean");
  Json values = Json::array();
  for (const double q : quanta) values.push_back(q);
  vary.set("values", std::move(values));
  req.set("vary", std::move(vary));
  return req;
}

double timed_ms(EvalService& service, const Json& req, Json* response) {
  const auto start = std::chrono::steady_clock::now();
  *response = service.handle(req);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAILED serve check: " << what << "\n";
    std::exit(1);
  }
}

const Json& field(const Json& response, const char* key) {
  const Json* v = response.find(key);
  require(v != nullptr, std::string("response lacks '") + key + "'");
  return *v;
}

std::vector<double> mean_jobs(const Json& response) {
  std::vector<double> out;
  for (const auto& c : field(response, "result").at("per_class").as_array())
    out.push_back(c.at("mean_jobs").as_double());
  return out;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const int reps = 5;

  // Count the whole run's solver/cache/arena activity into the emitted
  // JSON (counters only — the latency medians above remain the timing
  // story; counter updates are relaxed atomics and do not move them).
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});

  // --- Solve latency: cold vs cached vs warm on the Figure 2 system. ---
  // Each rep perturbs the arrival rate so warm starts face a genuinely
  // different scenario (repeats would be cache hits, not warm solves).
  std::vector<double> cold_ms, cached_ms, warm_ms;
  std::vector<std::int64_t> cold_iters, warm_iters;
  double max_mean_jobs_gap = 0.0;
  const double solver_tol = gs::gang::GangSolveOptions{}.tol;

  EvalService warm_service(ServiceOptions{/*num_threads=*/1,
                                          /*cache_capacity=*/64,
                                          /*warm_start=*/true,
                                          /*deterministic=*/true});
  EvalService cold_service(ServiceOptions{/*num_threads=*/1,
                                          /*cache_capacity=*/0,
                                          /*warm_start=*/false,
                                          /*deterministic=*/true});
  {
    // Prime the warm service (and the cache) with the base scenario.
    Json base_resp;
    const Json base_req = solve_request(paper_system());
    cold_ms.push_back(timed_ms(warm_service, base_req, &base_resp));
    require(!field(base_resp, "warm_started").as_bool(),
            "first solve cannot be warm");
    cold_iters.push_back(field(base_resp, "iterations").as_int());

    for (int rep = 0; rep < reps; ++rep) {
      // Cached: the base scenario again, answered from the LRU cache.
      Json cached_resp;
      cached_ms.push_back(timed_ms(warm_service, base_req, &cached_resp));
      require(field(cached_resp, "cached").as_bool(),
              "repeat solve must hit the cache");

      PaperKnobs knobs;
      knobs.arrival_rate = 0.4 + 0.005 * (rep + 1);
      const Json perturbed_req = solve_request(paper_system(knobs));

      Json warm_resp;
      warm_ms.push_back(timed_ms(warm_service, perturbed_req, &warm_resp));
      require(field(warm_resp, "warm_started").as_bool(),
              "perturbed solve must warm-start");
      warm_iters.push_back(field(warm_resp, "iterations").as_int());

      Json cold_resp;
      cold_ms.push_back(timed_ms(cold_service, perturbed_req, &cold_resp));
      require(!field(cold_resp, "cached").as_bool() &&
                  !field(cold_resp, "warm_started").as_bool(),
              "cold service must not cache or warm-start");
      cold_iters.push_back(field(cold_resp, "iterations").as_int());

      require(warm_iters.back() < cold_iters.back(),
              "warm start must converge in fewer iterations than cold");
      const auto warm_n = mean_jobs(warm_resp);
      const auto cold_n = mean_jobs(cold_resp);
      require(warm_n.size() == cold_n.size(), "class count mismatch");
      for (std::size_t p = 0; p < warm_n.size(); ++p)
        max_mean_jobs_gap = std::max(max_mean_jobs_gap,
                                     std::abs(warm_n[p] - cold_n[p]));
    }
  }
  require(max_mean_jobs_gap <= 10.0 * solver_tol,
          "warm and cold fixed points must agree within solver tolerance");

  // --- Sweep throughput at 1, 4, 8 threads (bitwise-equal results). ---
  // 64 points so the shared pool and warm chaining have something to
  // amortize (the service enables chaining via its warm_start default).
  // Efficiency is points/s divided by threads times the 1-thread rate —
  // on a single-core host it degrades as 1/threads by construction, which
  // the recorded hardware_concurrency makes legible.
  PaperKnobs small;  // lighter load so the sweep part stays quick
  small.arrival_rate = 0.3;
  std::vector<double> quanta;
  for (int i = 0; i < 64; ++i) quanta.push_back(0.25 + 0.0625 * i);
  const Json sweep_req = sweep_request(paper_system(small), quanta);

  struct SweepRow {
    int threads;
    double ms;
    double points_per_s;
    double efficiency;
  };
  std::vector<SweepRow> sweep_rows;
  std::string reference_points;
  for (const int threads : {1, 4, 8}) {
    EvalService service(ServiceOptions{threads, /*cache_capacity=*/0,
                                       /*warm_start=*/true,
                                       /*deterministic=*/true});
    std::vector<double> times;
    std::string points;
    for (int rep = 0; rep < 2; ++rep) {
      Json resp;
      times.push_back(timed_ms(service, sweep_req, &resp));
      points = field(resp, "points").dump();
    }
    if (reference_points.empty()) reference_points = points;
    require(points == reference_points,
            "sweep results must be bitwise identical at every thread count");
    const double ms = median(times);
    sweep_rows.push_back(
        {threads, ms, 1000.0 * static_cast<double>(quanta.size()) / ms, 0.0});
  }
  for (auto& row : sweep_rows)
    row.efficiency = row.points_per_s / (static_cast<double>(row.threads) *
                                         sweep_rows.front().points_per_s);

  // --- Emit BENCH_serve.json. ---
  Json out = Json::object();
  Json config = Json::object();
  config.set("system", "figure2");
  config.set("reps", reps);
  config.set("sweep_points", static_cast<std::int64_t>(quanta.size()));
  config.set("hardware_concurrency",
             static_cast<std::int64_t>(
                 std::max(1u, std::thread::hardware_concurrency())));
  out.set("config", std::move(config));

  Json latency = Json::object();
  latency.set("cold_ms", median(cold_ms));
  latency.set("cached_ms", median(cached_ms));
  latency.set("warm_ms", median(warm_ms));
  out.set("solve_latency", std::move(latency));

  const double cold_iter_median =
      median(std::vector<double>(cold_iters.begin(), cold_iters.end()));
  const double warm_iter_median =
      median(std::vector<double>(warm_iters.begin(), warm_iters.end()));
  Json warm_cold = Json::object();
  warm_cold.set("cold_iterations_median", cold_iter_median);
  warm_cold.set("warm_iterations_median", warm_iter_median);
  warm_cold.set("max_mean_jobs_gap", max_mean_jobs_gap);
  warm_cold.set("solver_tol", solver_tol);
  out.set("warm_vs_cold", std::move(warm_cold));

  Json sweeps = Json::array();
  for (const auto& row : sweep_rows) {
    Json r = Json::object();
    r.set("threads", row.threads);
    r.set("ms", row.ms);
    r.set("points_per_s", row.points_per_s);
    r.set("efficiency", row.efficiency);
    sweeps.push_back(std::move(r));
  }
  out.set("sweep_throughput", std::move(sweeps));

  {
    const gs::obs::Snapshot snap = gs::obs::snapshot();
    Json obs = Json::object();
    for (const char* name :
         {"gang.solve.count", "gang.solve.iterations", "gang.solve.warm",
          "serve.cache.hit", "serve.cache.miss", "sweep.points",
          "sweep.anchors", "sweep.fills", "sweep.warm_started",
          "qbd.arena.borrow", "qbd.arena.hit", "pool.batches",
          "pool.tasks"}) {
      obs.set(name, static_cast<std::int64_t>(snap.counter_value(name)));
    }
    out.set("obs", std::move(obs));
  }

  std::ofstream file(out_path);
  file << out.dump() << "\n";
  file.close();

  std::printf("solve latency (median ms): cold %.2f  cached %.4f  warm %.2f\n",
              median(cold_ms), median(cached_ms), median(warm_ms));
  std::printf("iterations (median): cold %.0f  warm %.0f  (max |dn| %.2e, "
              "tol %.0e)\n",
              cold_iter_median, warm_iter_median, max_mean_jobs_gap,
              solver_tol);
  for (const auto& row : sweep_rows)
    std::printf(
        "sweep x%zu @ %d threads: %8.2f ms  (%.1f points/s, "
        "efficiency %.2f)\n",
        quanta.size(), row.threads, row.ms, row.points_per_s, row.efficiency);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
