#include "serve/canonical.hpp"

#include <vector>

#include "phase/builders.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace gs::serve {

namespace {

using json::Json;
using linalg::Matrix;
using linalg::Vector;
using phase::PhaseType;

Json vector_to_json(const Vector& v) {
  Json out = Json::array();
  for (const double x : v) out.push_back(x);
  return out;
}

Vector vector_from_json(const Json& v) {
  Vector out;
  out.reserve(v.as_array().size());
  for (const auto& x : v.as_array()) out.push_back(x.as_double());
  return out;
}

Json matrix_to_json(const Matrix& m) {
  Json out = Json::array();
  for (std::size_t r = 0; r < m.rows(); ++r)
    out.push_back(vector_to_json(m.row(r)));
  return out;
}

Matrix matrix_from_json(const Json& v) {
  const auto& rows = v.as_array();
  GS_CHECK(!rows.empty(), "matrix needs at least one row");
  const std::size_t cols = rows[0].as_array().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r].as_array();
    GS_CHECK(row.size() == cols, "matrix rows must have equal length");
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = row[c].as_double();
  }
  return m;
}

/// Reject unknown keys with a did-you-mean hint: a silently ignored typo
/// ("quantumm") would make the request solve a different model than the
/// client believes, and — worse — cache it under the wrong identity.
void check_keys(const Json& v, const std::vector<std::string>& allowed,
                const std::string& where) {
  for (const auto& m : v.as_object()) {
    bool known = false;
    for (const auto& k : allowed) {
      if (m.key == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string msg = "unknown key '" + m.key + "' in " + where;
      if (const auto hint = util::did_you_mean(m.key, allowed))
        msg += " (did you mean '" + *hint + "'?)";
      throw InvalidArgument(msg);
    }
  }
}

}  // namespace

Json phase_to_json(const PhaseType& ph) {
  Json out = Json::object();
  out.set("alpha", vector_to_json(ph.alpha()));
  out.set("s", matrix_to_json(ph.generator()));
  return out;
}

PhaseType phase_from_json(const Json& v) {
  GS_CHECK(v.is_object(), "distribution must be a JSON object");
  if (const Json* dist = v.find("dist")) {
    const std::string& kind = dist->as_string();
    if (kind == "exponential") {
      check_keys(v, {"dist", "rate"}, "exponential distribution");
      return phase::exponential(v.at("rate").as_double());
    }
    if (kind == "erlang") {
      check_keys(v, {"dist", "stages", "mean"}, "erlang distribution");
      return phase::erlang(static_cast<int>(v.at("stages").as_int()),
                           v.at("mean").as_double());
    }
    if (kind == "hyperexponential") {
      check_keys(v, {"dist", "probs", "rates"},
                 "hyperexponential distribution");
      return phase::hyperexponential(vector_from_json(v.at("probs")),
                                     vector_from_json(v.at("rates")));
    }
    if (kind == "hypoexponential") {
      check_keys(v, {"dist", "rates"}, "hypoexponential distribution");
      return phase::hypoexponential(vector_from_json(v.at("rates")));
    }
    if (kind == "coxian") {
      check_keys(v, {"dist", "rates", "continue_probs"},
                 "coxian distribution");
      return phase::coxian(vector_from_json(v.at("rates")),
                           vector_from_json(v.at("continue_probs")));
    }
    std::string msg = "unknown distribution kind '" + kind + "'";
    if (const auto hint = util::did_you_mean(
            kind, {"exponential", "erlang", "hyperexponential",
                   "hypoexponential", "coxian"}))
      msg += " (did you mean '" + *hint + "'?)";
    throw InvalidArgument(msg);
  }
  check_keys(v, {"alpha", "s"}, "phase-type distribution");
  return PhaseType(vector_from_json(v.at("alpha")),
                   matrix_from_json(v.at("s")));
}

Json params_to_json(const gang::SystemParams& params) {
  Json out = Json::object();
  out.set("processors", params.processors());
  Json classes = Json::array();
  for (const auto& c : params.classes()) {
    Json cj = Json::object();
    cj.set("name", c.name);
    cj.set("partition_size", c.partition_size);
    cj.set("arrival", phase_to_json(c.arrival));
    cj.set("service", phase_to_json(c.service));
    cj.set("quantum", phase_to_json(c.quantum));
    cj.set("overhead", phase_to_json(c.overhead));
    cj.set("batch_pmf", vector_to_json(c.batch_pmf));
    classes.push_back(std::move(cj));
  }
  out.set("classes", std::move(classes));
  return out;
}

gang::SystemParams params_from_json(const Json& v) {
  GS_CHECK(v.is_object(), "system must be a JSON object");
  check_keys(v, {"processors", "classes"}, "system");
  const std::size_t processors =
      static_cast<std::size_t>(v.at("processors").as_int());
  std::vector<gang::ClassParams> classes;
  for (const auto& cj : v.at("classes").as_array()) {
    check_keys(cj,
               {"name", "partition_size", "arrival", "service", "quantum",
                "overhead", "batch_pmf"},
               "class");
    gang::ClassParams c{phase_from_json(cj.at("arrival")),
                        phase_from_json(cj.at("service")),
                        phase_from_json(cj.at("quantum")),
                        phase_from_json(cj.at("overhead")),
                        /*partition_size=*/1,
                        /*name=*/""};
    c.partition_size = static_cast<std::size_t>(
        cj.at("partition_size").as_int());
    if (const Json* name = cj.find("name")) c.name = name->as_string();
    if (const Json* pmf = cj.find("batch_pmf"))
      c.batch_pmf = vector_from_json(*pmf);
    classes.push_back(std::move(c));
  }
  return gang::SystemParams(processors, std::move(classes));
}

namespace {

const char* eff_mode_name(gang::EffQuantumMode m) {
  return m == gang::EffQuantumMode::kExact ? "exact" : "moment_matched";
}

const char* init_name(gang::InitMode m) {
  return m == gang::InitMode::kOptimistic ? "optimistic" : "heavy_traffic";
}

}  // namespace

Json options_to_json(const gang::GangSolveOptions& options) {
  Json out = Json::object();
  out.set("fixed_point", options.fixed_point);
  out.set("eff_mode", eff_mode_name(options.eff_mode));
  out.set("fit_max_order", options.fit_max_order);
  out.set("tol", options.tol);
  out.set("max_iterations", options.max_iterations);
  Json trunc = Json::object();
  trunc.set("tail_eps", options.truncation.tail_eps);
  trunc.set("max_levels", options.truncation.max_levels);
  trunc.set("saturated_tail", options.truncation.saturated_tail);
  out.set("truncation", std::move(trunc));
  out.set("init", init_name(options.init));
  out.set("fallback_to_optimistic", options.fallback_to_optimistic);
  out.set("queue_dist_levels", options.queue_dist_levels);
  Json qbd = Json::object();
  // Log reduction is the only R algorithm; the member stays in the
  // canonical form so scenario hashes match those computed when the
  // algorithm was selectable.
  qbd.set("r_method", "logreduction");
  qbd.set("r_tol", options.qbd.r_options.tol);
  qbd.set("r_max_iter", options.qbd.r_options.max_iter);
  out.set("qbd", std::move(qbd));
  return out;
}

gang::GangSolveOptions options_from_json(const Json& v) {
  gang::GangSolveOptions o;
  if (v.is_null()) return o;
  GS_CHECK(v.is_object(), "options must be a JSON object");
  check_keys(v,
             {"fixed_point", "eff_mode", "fit_max_order", "tol",
              "max_iterations", "truncation", "init",
              "fallback_to_optimistic", "queue_dist_levels", "qbd"},
             "options");
  if (const Json* x = v.find("fixed_point")) o.fixed_point = x->as_bool();
  if (const Json* x = v.find("eff_mode")) {
    const std::string& s = x->as_string();
    if (s == "moment_matched")
      o.eff_mode = gang::EffQuantumMode::kMomentMatched;
    else if (s == "exact")
      o.eff_mode = gang::EffQuantumMode::kExact;
    else
      throw InvalidArgument("eff_mode must be 'moment_matched' or 'exact'");
  }
  if (const Json* x = v.find("fit_max_order"))
    o.fit_max_order = static_cast<int>(x->as_int());
  if (const Json* x = v.find("tol")) o.tol = x->as_double();
  if (const Json* x = v.find("max_iterations"))
    o.max_iterations = static_cast<int>(x->as_int());
  if (const Json* x = v.find("truncation")) {
    check_keys(*x, {"tail_eps", "max_levels", "saturated_tail"},
               "options.truncation");
    if (const Json* y = x->find("tail_eps"))
      o.truncation.tail_eps = y->as_double();
    if (const Json* y = x->find("max_levels"))
      o.truncation.max_levels = static_cast<std::size_t>(y->as_int());
    if (const Json* y = x->find("saturated_tail"))
      o.truncation.saturated_tail = y->as_double();
  }
  if (const Json* x = v.find("init")) {
    const std::string& s = x->as_string();
    if (s == "heavy_traffic")
      o.init = gang::InitMode::kHeavyTraffic;
    else if (s == "optimistic")
      o.init = gang::InitMode::kOptimistic;
    else
      throw InvalidArgument("init must be 'heavy_traffic' or 'optimistic'");
  }
  if (const Json* x = v.find("fallback_to_optimistic"))
    o.fallback_to_optimistic = x->as_bool();
  if (const Json* x = v.find("queue_dist_levels"))
    o.queue_dist_levels = static_cast<std::size_t>(x->as_int());
  if (const Json* x = v.find("qbd")) {
    check_keys(*x, {"r_method", "r_tol", "r_max_iter"}, "options.qbd");
    if (const Json* y = x->find("r_method")) {
      const std::string& s = y->as_string();
      if (s != "logreduction")
        throw InvalidArgument("qbd.r_method '" + s +
                              "' is not available: the only R algorithm "
                              "is 'logreduction'");
    }
    if (const Json* y = x->find("r_tol"))
      o.qbd.r_options.tol = y->as_double();
    if (const Json* y = x->find("r_max_iter"))
      o.qbd.r_options.max_iter = static_cast<int>(y->as_int());
  }
  return o;
}

std::string canonical_scenario(const gang::SystemParams& params,
                               const gang::GangSolveOptions& options) {
  Json out = Json::object();
  out.set("system", params_to_json(params));
  out.set("options", options_to_json(options));
  return out.dump();
}

std::uint64_t scenario_hash(const gang::SystemParams& params,
                            const gang::GangSolveOptions& options) {
  return json::fnv1a64(canonical_scenario(params, options));
}

std::uint64_t structure_hash(const gang::SystemParams& params,
                             const gang::GangSolveOptions& options) {
  Json out = Json::object();
  out.set("processors", params.processors());
  Json classes = Json::array();
  for (const auto& c : params.classes()) {
    Json cj = Json::object();
    cj.set("partition_size", c.partition_size);
    cj.set("arrival_order", c.arrival.order());
    cj.set("service_order", c.service.order());
    cj.set("quantum_order", c.quantum.order());
    cj.set("overhead_order", c.overhead.order());
    cj.set("batch_max", c.batch_pmf.size());
    classes.push_back(std::move(cj));
  }
  out.set("classes", std::move(classes));
  out.set("options", options_to_json(options));
  return json::fnv1a64(out.dump());
}

}  // namespace gs::serve
