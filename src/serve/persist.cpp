// Cache persistence: EvalService::save_cache / load_cache.
//
// A snapshot is NDJSON, one entry per line, least-recently-used first:
//
//   {"solver_revision":R,"scenario":{"system":...,"options":...},
//    "hits":H,"report":{...}}
//
// The solver revision names the fixed-point algorithm that produced the
// reports. A solver change that moves answers bumps kSolverRevision, and
// lines stamped with any other revision (or none, as in snapshots from
// before the stamp existed) are skipped on load and counted in
// serve.cache.snapshot_stale: the daemon re-solves those scenarios on
// demand instead of replaying stale answers. Lines whose options name an
// R algorithm that has since been removed are skipped and counted the
// same way.
//
// The scenario member is the canonical scenario object itself (the hash
// preimage), so loading re-derives the scenario hash with fnv1a64 over
// its compact dump and the structure hash from the parsed params — the
// snapshot carries no hashes that could go stale if the canonical form
// ever evolves; a snapshot from an incompatible version simply re-keys.
// Doubles round-trip bitwise through json::format_double, so a warm-
// booted daemon answers its old working set byte-for-byte.
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "obs/obs.hpp"
#include "serve/canonical.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace gs::serve {

namespace {

using json::Json;

// Revision 1: the Anderson-accelerated fixed-point update
// (gang/anderson.hpp). Revision 2: R by warm-started Newton
// (qbd/rmatrix.hpp), which moves N_p by up to ~1e-11 relative.
constexpr std::int64_t kSolverRevision = 2;

// R algorithms earlier solvers could select through options.qbd.r_method.
// A line naming one describes a scenario no request can reach any more
// (options_from_json rejects it), so it is skipped as stale instead of
// failing the load.
bool names_removed_r_method(const Json& options) {
  const Json* qbd = options.is_object() ? options.find("qbd") : nullptr;
  const Json* m =
      qbd != nullptr && qbd->is_object() ? qbd->find("r_method") : nullptr;
  if (m == nullptr || !m->is_string()) return false;
  const std::string& s = m->as_string();
  return s == "newton" || s == "cyclic_reduction" || s == "substitution";
}

Json class_to_json_full(const gang::ClassResult& c) {
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
  Json qd = Json::array();
  for (const double p : c.queue_dist) qd.push_back(p);
  out.set("queue_dist", std::move(qd));
  return out;
}

gang::ClassResult class_from_json_full(const Json& v) {
  gang::ClassResult c;
  c.name = v.at("name").as_string();
  c.mean_jobs = v.at("mean_jobs").as_double();
  c.var_jobs = v.at("var_jobs").as_double();
  c.response_time = v.at("response_time").as_double();
  c.serving_fraction = v.at("serving_fraction").as_double();
  c.prob_empty = v.at("prob_empty").as_double();
  c.sp_r = v.at("sp_r").as_double();
  c.eff_quantum_mean = v.at("eff_quantum_mean").as_double();
  c.eff_quantum_atom = v.at("eff_quantum_atom").as_double();
  c.arrive_immediate = v.at("arrive_immediate").as_double();
  c.arrive_wait_slice = v.at("arrive_wait_slice").as_double();
  c.arrive_queued = v.at("arrive_queued").as_double();
  c.mean_slice_wait = v.at("mean_slice_wait").as_double();
  for (const auto& p : v.at("queue_dist").as_array())
    c.queue_dist.push_back(p.as_double());
  return c;
}

Json report_to_json_full(const gang::SolveReport& r) {
  Json out = Json::object();
  Json per_class = Json::array();
  for (const auto& c : r.per_class) per_class.push_back(class_to_json_full(c));
  out.set("per_class", std::move(per_class));
  out.set("iterations", r.iterations);
  out.set("converged", r.converged);
  out.set("final_delta", r.final_delta);
  out.set("used_optimistic_init", r.used_optimistic_init);
  out.set("used_warm_start", r.used_warm_start);
  out.set("mean_cycle_length", r.mean_cycle_length);
  Json slices = Json::array();
  for (const auto& ph : r.final_slices) slices.push_back(phase_to_json(ph));
  out.set("final_slices", std::move(slices));
  return out;
}

gang::SolveReport report_from_json_full(const Json& v) {
  gang::SolveReport r;
  for (const auto& c : v.at("per_class").as_array())
    r.per_class.push_back(class_from_json_full(c));
  r.iterations = static_cast<int>(v.at("iterations").as_int());
  r.converged = v.at("converged").as_bool();
  r.final_delta = v.at("final_delta").as_double();
  r.used_optimistic_init = v.at("used_optimistic_init").as_bool();
  r.used_warm_start = v.at("used_warm_start").as_bool();
  r.mean_cycle_length = v.at("mean_cycle_length").as_double();
  for (const auto& ph : v.at("final_slices").as_array())
    r.final_slices.push_back(phase_from_json(ph));
  return r;
}

}  // namespace

std::size_t EvalService::save_cache(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Least-recently-used first: replaying the lines through insert()
  // reconstructs both the LRU order and (via last-writer-wins) the
  // most-recently-used warm-start donor for every shape.
  const auto entries = cache_.entries();
  std::size_t written = 0;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const ResultCache::Entry& e = **it;
    Json line = Json::object();
    line.set("solver_revision", kSolverRevision);
    line.set("scenario", Json::parse(e.scenario));
    line.set("hits", e.hits);
    line.set("report", report_to_json_full(e.report));
    out << line.dump() << '\n';
    ++written;
  }
  return written;
}

std::size_t EvalService::save_cache_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot open cache snapshot for writing: " + path);
  const std::size_t n = save_cache(out);
  out.flush();
  if (!out) throw Error("failed writing cache snapshot: " + path);
  return n;
}

std::size_t EvalService::load_cache(std::istream& in) {
  std::string text;
  std::size_t line_no = 0;
  std::size_t loaded = 0;
  std::size_t stale = 0;
  while (std::getline(in, text)) {
    ++line_no;
    if (!text.empty() && text.back() == '\r') text.pop_back();
    if (text.empty()) continue;
    Json entry;
    gang::SolveReport report;
    std::string canon;
    std::uint64_t key = 0, shape = 0, hits = 0;
    try {
      entry = Json::parse(text);
      const Json& scenario = entry.at("scenario");
      canon = scenario.dump();
      key = json::fnv1a64(canon);
      const gang::SystemParams params =
          params_from_json(scenario.at("system"));
      if (names_removed_r_method(scenario.at("options"))) {
        ++stale;
        continue;
      }
      const gang::GangSolveOptions opts =
          options_from_json(scenario.at("options"));
      shape = structure_hash(params, opts);
      hits = static_cast<std::uint64_t>(entry.at("hits").as_int());
      // The scenario must parse whatever the revision (a malformed line
      // is an error); the report's layout belongs to its revision.
      const Json* revision = entry.find("solver_revision");
      if (revision == nullptr || revision->as_int() != kSolverRevision) {
        ++stale;
        continue;
      }
      report = report_from_json_full(entry.at("report"));
    } catch (const Error& e) {
      throw Error("cache snapshot line " + std::to_string(line_no) +
                  ": " + e.what());
    }
    std::lock_guard<std::mutex> lock(mu_);
    cache_.insert(key, std::move(canon), std::move(report), hits);
    warm_index_[shape] = key;
    ++loaded;
  }
  if (stale > 0) {
    obs::count("serve.cache.snapshot_stale", stale);
    log::warn("cache snapshot: skipped ", stale,
              " entries from another solver revision or a removed R "
              "algorithm");
  }
  return loaded;
}

std::size_t EvalService::load_cache_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open cache snapshot: " + path);
  return load_cache(in);
}

}  // namespace gs::serve
