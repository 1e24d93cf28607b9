// Batch scaling: the headline artifact for the lock-step SoA solver.
// Runs a 64-point Figure 2 quantum_mean sweep (solver only, no
// simulation) through the batched dispatch at a list of lane widths and
// emits BENCH_batch.json with per-width throughput plus two stage
// splits: the core-kernel split (qbd.batch.{pack,gemm,trsm,lu} wall
// time, shares of the instrumented kernel total) and the chunk-stage
// split (gang.batch.{boundary,effq} and their
// qbd.batch.boundary.{pack,lu,trsm} / gang.batch.effq.{tails,moments,
// fit} sub-stages, shares of end-to-end sweep wall). A second section
// times the lock-step R-solve core alone. Checked in-bench:
//   - every width's rows are bitwise identical to the width-1 (scalar
//     dispatch) rows — the lock-step guarantee the test suite pins; a
//     divergence prints the offending points' exact bits (%a) per class
//     and FAILS the run,
//   - every point actually rode the lock-step path at widths > 1,
//   - optionally (--min-batch-speedup=X) that the lock-step R-solve
//     core clears X times its width-1 lane throughput at the widest
//     width, and (--min-sweep-ratio=Y) that the END-TO-END sweep clears
//     Y times its width-1 throughput at the widest width — both skipped
//     with a warning when the host cannot run 2 lanes in parallel,
//     matching the sweep-scaling precedent.
//
// The end-to-end gate is meaningful now that the whole lock-step chunk
// is batched: the boundary/stationary stage (qbd::solve_boundary_batch)
// and the effective-quantum refit (ClassProcess::effective_quantum_batch)
// run lanes-abreast next to the R solves, so the sweep ratio tracks the
// lane width instead of being Amdahl-capped near 1x by scalar per-lane
// stages.
//
// --check runs only the bitwise sweep-equivalence section (one rep per
// width, no timing gates) and exits nonzero on any divergence — the
// cheap discipline check the CI matrix runs per configuration.
//
//   $ ./batch_scaling [out.json] [--widths=1,2,4,8] [--threads=N]
//                     [--min-batch-speedup=1.5] [--min-sweep-ratio=1.3]
//                     [--check]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "gang/solver.hpp"
#include "json/json.hpp"
#include "linalg/batch.hpp"
#include "linalg/gemm.hpp"
#include "obs/obs.hpp"
#include "qbd/batch.hpp"
#include "qbd/rmatrix.hpp"
#include "workload/paper_configs.hpp"
#include "workload/sweep.hpp"

namespace {

using gs::json::Json;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;
using gs::workload::sweep;
using gs::workload::SweepOptions;
using gs::workload::SweepPoint;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAILED batch check: " << what << "\n";
    std::exit(1);
  }
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Bitwise comparison against the width-1 reference with per-point
// diagnostics: any diverging point prints its x, the class index, and
// both sides' exact bits, then the run FAILS — a divergence is a
// lock-step discipline regression, never a tolerance matter.
void check_bitwise(const std::vector<SweepPoint>& reference,
                   const std::vector<SweepPoint>& rows, int width) {
  bool diverged = rows.size() != reference.size();
  if (diverged) {
    std::cerr << "width " << width << ": row count " << rows.size()
              << " != reference " << reference.size() << "\n";
  } else {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepPoint& ref = reference[i];
      const SweepPoint& got = rows[i];
      const bool point_diverged =
          std::memcmp(&got.x, &ref.x, sizeof(double)) != 0 ||
          got.model_n.size() != ref.model_n.size() ||
          std::memcmp(got.model_n.data(), ref.model_n.data(),
                      ref.model_n.size() * sizeof(double)) != 0 ||
          got.error != ref.error;
      if (!point_diverged) continue;
      diverged = true;
      std::fprintf(stderr, "width %d point %zu (x=%.17g) diverges:\n", width,
                   i, got.x);
      for (std::size_t p = 0;
           p < std::max(got.model_n.size(), ref.model_n.size()); ++p) {
        const char* ref_bits = "<missing>";
        const char* got_bits = "<missing>";
        char rbuf[64], gbuf[64];
        if (p < ref.model_n.size()) {
          std::snprintf(rbuf, sizeof(rbuf), "%a", ref.model_n[p]);
          ref_bits = rbuf;
        }
        if (p < got.model_n.size()) {
          std::snprintf(gbuf, sizeof(gbuf), "%a", got.model_n[p]);
          got_bits = gbuf;
        }
        if (std::string(ref_bits) != got_bits)
          std::fprintf(stderr, "  class %zu: scalar %s batched %s\n", p,
                       ref_bits, got_bits);
      }
      if (got.error != ref.error)
        std::fprintf(stderr, "  error: scalar \"%s\" batched \"%s\"\n",
                     ref.error.c_str(), got.error.c_str());
    }
  }
  require(!diverged,
          "rows must be bitwise identical at every batch width (width " +
              std::to_string(width) + " diverged from the scalar rows)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_batch.json";
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  std::vector<int> widths = {1, 2, 4, 8};
  int threads = 1;
  double min_speedup = 0.0;
  double min_sweep_ratio = 0.0;
  bool check_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--widths=", 0) == 0) {
      widths.clear();
      std::string list = arg.substr(9);
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        widths.push_back(std::atoi(list.substr(pos, end - pos).c_str()));
        pos = end + 1;
      }
      require(!widths.empty() && widths.front() >= 1,
              "--widths needs a comma-separated list starting at >= 1");
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.substr(10).c_str());
      require(threads >= 1, "--threads must be >= 1");
    } else if (arg.rfind("--min-batch-speedup=", 0) == 0) {
      min_speedup = std::atof(arg.substr(20).c_str());
    } else if (arg.rfind("--min-sweep-ratio=", 0) == 0) {
      min_sweep_ratio = std::atof(arg.substr(18).c_str());
    } else if (arg == "--check") {
      check_only = true;
    } else {
      out_path = arg;
    }
  }
  std::sort(widths.begin(), widths.end());
  require(widths.front() == 1,
          "width 1 must be in the list (it is the scalar baseline)");

  // Figure 2's system (rho = 0.4), quantum mean swept across 64 points —
  // every point shares one structure hash, so the batched dispatch packs
  // them wall-to-wall and the width is the only thing that varies.
  const std::size_t num_points = 64;
  std::vector<double> xs;
  for (std::size_t i = 0; i < num_points; ++i)
    xs.push_back(0.25 + 3.75 * static_cast<double>(i) /
                            static_cast<double>(num_points - 1));
  const auto make_system = [](double q) {
    PaperKnobs knobs;
    knobs.quantum_mean = q;
    return paper_system(knobs);
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::cout << "config: figure2 system, " << num_points
            << "-point quantum_mean sweep, " << threads
            << " threads, hardware_concurrency " << hw << "\n";

  struct Stage {
    double ms = 0.0;     ///< per-rep wall time in the stage
    double share = 0.0;  ///< core kernels: of the instrumented kernel
                         ///< total; chunk stages: of end-to-end sweep wall
  };
  struct Row {
    int width = 0;
    double ms = 0.0;
    double points_per_s = 0.0;
    double speedup = 0.0;  ///< points_per_s / width-1 points_per_s
    std::int64_t batched_points = 0;
    std::int64_t masked_flops = 0;
    // Core-kernel split (qbd.batch.*, shares of the kernel total).
    Stage pack, gemm, trsm, lu;
    // Chunk-stage split (shares of end-to-end sweep wall): the batched
    // boundary/stationary stage with its pack/lu/trsm sub-stages and the
    // batched effective-quantum refit with its tails/moments/fit
    // sub-stages. Zero at width 1 — the scalar dispatch never enters the
    // lock-step chunk.
    Stage boundary, bnd_pack, bnd_lu, bnd_trsm;
    Stage effq, effq_tails, effq_moments, effq_fit;
  };
  std::vector<Row> rows;
  std::vector<SweepPoint> reference_rows;
  const int reps = check_only ? 1 : 3;
  for (const int width : widths) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.warm_chain = false;  // isolate the dispatch, not the chaining
    opts.batch_width = static_cast<std::size_t>(width);
    std::vector<double> times;
    std::vector<SweepPoint> sweep_rows;
    gs::obs::reset();
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      sweep_rows = sweep(xs, make_system, opts);
      times.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    const gs::obs::Snapshot snap = gs::obs::snapshot();
    if (reference_rows.empty())
      reference_rows = sweep_rows;  // width 1: the scalar baseline
    else
      check_bitwise(reference_rows, sweep_rows, width);
    Row row;
    row.width = width;
    row.ms = median(times);
    row.points_per_s = 1000.0 * static_cast<double>(num_points) / row.ms;
    row.batched_points =
        static_cast<std::int64_t>(snap.counter_value("sweep.batched")) / reps;
    row.masked_flops = static_cast<std::int64_t>(
                           snap.counter_value("qbd.batch.masked_flops")) /
                       reps;
    if (width > 1)
      require(row.batched_points == static_cast<std::int64_t>(num_points),
              "every point must ride the lock-step path at width " +
                  std::to_string(width));
    // Stage split from the qbd.batch.* timers: per-rep totals, then each
    // stage's share of the instrumented time. Width 1 shows nonzero
    // stages too: the scalar dispatch still lock-steps same-shaped
    // classes inside each solve (gang.solve.grouped_classes), so the
    // batch kernels run at every width — only the cross-point lanes
    // are new at widths > 1.
    const auto stage_ms = [&snap, reps](const char* name) {
      const gs::obs::TimerValue* t = snap.timer(name);
      if (t == nullptr || t->count == 0) return 0.0;
      return static_cast<double>(t->total_ns) / 1e6 /
             static_cast<double>(reps);
    };
    row.pack.ms = stage_ms("qbd.batch.pack");
    row.gemm.ms = stage_ms("qbd.batch.gemm");
    row.trsm.ms = stage_ms("qbd.batch.trsm");
    row.lu.ms = stage_ms("qbd.batch.lu");
    const double staged =
        row.pack.ms + row.gemm.ms + row.trsm.ms + row.lu.ms;
    if (staged > 0.0) {
      row.pack.share = row.pack.ms / staged;
      row.gemm.share = row.gemm.ms / staged;
      row.trsm.share = row.trsm.ms / staged;
      row.lu.share = row.lu.ms / staged;
    }
    // Chunk-stage split: the two formerly-scalar stages of the lock-step
    // chunk and their sub-stages, as shares of end-to-end sweep wall.
    // These are the Amdahl terms the batched boundary + effq refit
    // collapse — the shares at widths > 1 are the artifact the tentpole
    // is judged on.
    const auto wall_stage = [&](const char* name) {
      Stage s;
      s.ms = stage_ms(name);
      if (row.ms > 0.0) s.share = s.ms / row.ms;
      return s;
    };
    row.boundary = wall_stage("gang.batch.boundary");
    row.bnd_pack = wall_stage("qbd.batch.boundary.pack");
    row.bnd_lu = wall_stage("qbd.batch.boundary.lu");
    row.bnd_trsm = wall_stage("qbd.batch.boundary.trsm");
    row.effq = wall_stage("gang.batch.effq");
    row.effq_tails = wall_stage("gang.batch.effq.tails");
    row.effq_moments = wall_stage("gang.batch.effq.moments");
    row.effq_fit = wall_stage("gang.batch.effq.fit");
    rows.push_back(row);
  }
  for (auto& row : rows)
    row.speedup = row.points_per_s / rows.front().points_per_s;

  if (check_only) {
    std::cout << "bitwise check passed: " << (widths.size() - 1)
              << " batched width(s) identical to the scalar rows\n";
    return 0;
  }

  // --- Lock-step core scaling. ---
  // Lane throughput of the batched R solve itself: class 0's chain at
  // five Figure 2 loads cycles across the lanes (so convergence spreads
  // like a real mixed batch) and every width solves the same set of
  // chains. The
  // speedup is lane-solves/s at width w over width 1 — the quantity the
  // tiled batch kernels actually move, free of the sweep's scalar
  // effective-quantum and boundary stages.
  struct CoreRow {
    int width = 0;
    double lane_us = 0.0;  ///< wall microseconds per lane-solve
    double speedup = 0.0;  ///< width-1 lane_us / this width's lane_us
  };
  std::vector<CoreRow> core_rows;
  {
    std::vector<gs::qbd::QbdBlocks> chains;
    for (double rho : {0.2, 0.4, 0.6, 0.8, 0.9}) {
      PaperKnobs knobs;
      knobs.arrival_rate = rho;
      const auto sys = paper_system(knobs);
      const gs::gang::ClassProcess cp(
          sys, 0, gs::gang::away_period_heavy_traffic(sys, 0));
      chains.push_back(cp.process().blocks());
    }
    const std::size_t d = chains.front().a1.rows();
    const int core_reps = 1200;
    for (const int width : widths) {
      const std::size_t w = static_cast<std::size_t>(width);
      gs::qbd::BatchWorkspace bw;
      gs::qbd::BatchRSolveResult res;
      const gs::linalg::LaneMask mask(w, true);
      bw.blocks.ensure(d, w);
      for (std::size_t l = 0; l < w; ++l)
        bw.blocks.load_lane(l, chains[l % chains.size()]);
      gs::qbd::solve_r_logreduction_batch(bw.blocks, mask, {}, bw, res);
      for (std::size_t l = 0; l < w; ++l)
        require(res.ok(l), "core scaling lane failed to converge");
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < core_reps; ++rep)
        gs::qbd::solve_r_logreduction_batch(bw.blocks, mask, {}, bw, res);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      CoreRow row;
      row.width = width;
      row.lane_us = 1000.0 * ms / (static_cast<double>(core_reps) * w);
      core_rows.push_back(row);
    }
    for (auto& row : core_rows)
      row.speedup = core_rows.front().lane_us / row.lane_us;
  }

  // --- Optional speedup gates. ---
  // --min-batch-speedup gates the lock-step R-solve core's lane
  // throughput; --min-sweep-ratio gates the END-TO-END sweep throughput
  // at the widest width — the chunk is fully batched (R + boundary +
  // effective-quantum refit run lanes-abreast), so the sweep ratio is a
  // real lane-scaling signal, not an Amdahl-capped constant. Both skip
  // with a warning when the host cannot run 2 lanes in parallel.
  const int max_width = widths.back();
  const double sweep_speedup = rows.back().speedup;
  const double core_speedup = core_rows.back().speedup;
  bool gate_skipped = false;
  if ((min_speedup > 0.0 || min_sweep_ratio > 0.0) &&
      (hw < 2 || max_width < 2)) {
    gate_skipped = true;
    std::cerr << "WARNING: speedup gates skipped (hardware_concurrency " << hw
              << ", max width " << max_width
              << "): timing ratios on a contended single core say nothing "
                 "about the lock-step dispatch\n";
  } else {
    if (min_speedup > 0.0) {
      require(core_speedup >= min_speedup,
              "core lane speedup " + std::to_string(core_speedup) +
                  "x at width " + std::to_string(max_width) +
                  " is below the --min-batch-speedup=" +
                  std::to_string(min_speedup) + " gate");
    }
    if (min_sweep_ratio > 0.0) {
      require(sweep_speedup >= min_sweep_ratio,
              "end-to-end sweep speedup " + std::to_string(sweep_speedup) +
                  "x at width " + std::to_string(max_width) +
                  " is below the --min-sweep-ratio=" +
                  std::to_string(min_sweep_ratio) + " gate");
    }
  }

  // --- Emit BENCH_batch.json. ---
  Json out = Json::object();
  Json config = Json::object();
  config.set("system", "figure2");
  config.set("points", static_cast<std::int64_t>(num_points));
  config.set("reps", reps);
  config.set("threads", threads);
  config.set("hardware_concurrency", static_cast<std::int64_t>(hw));
  config.set("compiler", __VERSION__);
#ifdef NDEBUG
  config.set("build", "release");
#else
  config.set("build", "debug");
#endif
  config.set("kernel_variant", gs::linalg::gemm_kernel_variant());
  config.set("batch_kernel_variant", gs::linalg::batch_gemm_kernel_variant());
  out.set("config", std::move(config));

  Json width_rows = Json::array();
  for (const auto& row : rows) {
    Json r = Json::object();
    r.set("width", row.width);
    r.set("ms", row.ms);
    r.set("points_per_s", row.points_per_s);
    r.set("speedup_vs_width_1", row.speedup);
    r.set("batched_points", row.batched_points);
    r.set("masked_flops", row.masked_flops);
    Json stages = Json::object();
    const auto stage_json = [](const auto& s) {
      Json j = Json::object();
      j.set("ms", s.ms);
      j.set("share", s.share);
      return j;
    };
    stages.set("pack", stage_json(row.pack));
    stages.set("gemm", stage_json(row.gemm));
    stages.set("trsm", stage_json(row.trsm));
    stages.set("lu", stage_json(row.lu));
    r.set("stages", std::move(stages));
    // Chunk stages: shares of end-to-end sweep wall (not of the kernel
    // total like "stages" above).
    Json chunk = Json::object();
    chunk.set("boundary", stage_json(row.boundary));
    chunk.set("boundary_pack", stage_json(row.bnd_pack));
    chunk.set("boundary_lu", stage_json(row.bnd_lu));
    chunk.set("boundary_trsm", stage_json(row.bnd_trsm));
    chunk.set("effq", stage_json(row.effq));
    chunk.set("effq_tails", stage_json(row.effq_tails));
    chunk.set("effq_moments", stage_json(row.effq_moments));
    chunk.set("effq_fit", stage_json(row.effq_fit));
    r.set("chunk_stages", std::move(chunk));
    width_rows.push_back(std::move(r));
  }
  out.set("batched_sweep", std::move(width_rows));

  Json core = Json::array();
  for (const auto& row : core_rows) {
    Json r = Json::object();
    r.set("width", row.width);
    r.set("lane_us", row.lane_us);
    r.set("speedup_vs_width_1", row.speedup);
    core.push_back(std::move(r));
  }
  out.set("core_scaling", std::move(core));

  Json gate = Json::object();
  gate.set("core_speedup_vs_width_1", core_speedup);
  gate.set("sweep_speedup_vs_width_1", sweep_speedup);
  gate.set("min_batch_speedup", min_speedup);
  gate.set("min_sweep_ratio", min_sweep_ratio);
  gate.set("skipped", gate_skipped);
  out.set("speedup_gate", std::move(gate));

  std::ofstream file(out_path);
  file << out.dump() << "\n";
  file.close();

  for (const auto& row : rows)
    std::printf(
        "width %2d: %8.1f ms  (%.1f points/s, %.2fx vs width 1, "
        "%lld points batched; stages pack %.0f%% gemm %.0f%% trsm %.0f%% "
        "lu %.0f%%)\n",
        row.width, row.ms, row.points_per_s, row.speedup,
        static_cast<long long>(row.batched_points), 100.0 * row.pack.share,
        100.0 * row.gemm.share, 100.0 * row.trsm.share, 100.0 * row.lu.share);
  for (const auto& row : rows)
    std::printf(
        "width %2d chunk: boundary %4.1f%% of wall (pack %.1f%% lu %.1f%% "
        "trsm %.1f%%)  effq %4.1f%% (tails %.1f%% moments %.1f%% fit "
        "%.1f%%)\n",
        row.width, 100.0 * row.boundary.share, 100.0 * row.bnd_pack.share,
        100.0 * row.bnd_lu.share, 100.0 * row.bnd_trsm.share,
        100.0 * row.effq.share, 100.0 * row.effq_tails.share,
        100.0 * row.effq_moments.share, 100.0 * row.effq_fit.share);
  for (const auto& row : core_rows)
    std::printf("core width %2d: %7.1f us/lane-solve  (%.2fx vs width 1)\n",
                row.width, row.lane_us, row.speedup);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
