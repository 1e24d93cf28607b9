// ndjson_diff: structural comparison of two NDJSON files for the gangd
// smoke test. A plain `diff` would pin the golden file to one libm/compiler:
// the solver's doubles can drift in the last few ulps across toolchains
// while still being the same answer. This tool parses both sides and
// compares values, allowing a relative tolerance on numbers only —
// structure, key order, strings, booleans, and counts must match exactly.
//
// Usage: ndjson_diff <actual> <golden> [--rtol 1e-9] [--atol 1e-12]
//                    [--by KEY]
// Exit 0 when equivalent; 1 with a pathed first-difference report.
// --by KEY also prints, for each value of the string member KEY of the
// golden's lines, the largest relative change of any number on those
// lines (|a - b| / max(|a|, |b|)), so a failing run shows how far each
// group moved, not only where the first difference sits.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"

namespace {

using gs::json::Json;

struct Tolerance {
  double rtol;
  double atol;
};

bool numbers_match(double a, double b, const Tolerance& tol) {
  if (a == b) return true;  // covers signed zeros and exact hits
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= std::max(tol.atol, tol.rtol * scale);
}

/// GS_CHECK error messages end with "failed at /abs/path:line]"; the path
/// names the build machine's checkout, so mask it before comparing.
std::string mask_source_location(std::string s) {
  const auto at = s.find(" failed at ");
  if (at == std::string::npos) return s;
  const auto close = s.find(']', at);
  if (close != std::string::npos) s.erase(at, close - at);
  return s;
}

/// First difference between two values, or empty when equivalent.
/// `path` accumulates a JSON-pointer-ish locator for the report.
std::string first_diff(const Json& a, const Json& b, const Tolerance& tol,
                       const std::string& path) {
  if (a.is_string() && b.is_string()) {
    if (mask_source_location(a.as_string()) ==
        mask_source_location(b.as_string()))
      return {};
    return path + ": " + a.dump() + " vs " + b.dump();
  }
  if (a.is_number() && b.is_number()) {
    if (numbers_match(a.as_double(), b.as_double(), tol)) return {};
    return path + ": " + gs::json::format_double(a.as_double()) + " vs " +
           gs::json::format_double(b.as_double());
  }
  if (a.is_array() && b.is_array()) {
    const auto& xs = a.as_array();
    const auto& ys = b.as_array();
    if (xs.size() != ys.size())
      return path + ": array length " + std::to_string(xs.size()) + " vs " +
             std::to_string(ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::string d =
          first_diff(xs[i], ys[i], tol, path + "/" + std::to_string(i));
      if (!d.empty()) return d;
    }
    return {};
  }
  if (a.is_object() && b.is_object()) {
    const auto& xs = a.as_object();
    const auto& ys = b.as_object();
    // Key order is part of the protocol (responses are canonical), so a
    // reordering is a real difference, not cosmetic.
    for (std::size_t i = 0; i < std::min(xs.size(), ys.size()); ++i) {
      if (xs[i].key != ys[i].key)
        return path + ": key '" + xs[i].key + "' vs '" + ys[i].key + "'";
      std::string d =
          first_diff(xs[i].value, ys[i].value, tol, path + "/" + xs[i].key);
      if (!d.empty()) return d;
    }
    if (xs.size() != ys.size())
      return path + ": object size " + std::to_string(xs.size()) + " vs " +
             std::to_string(ys.size());
    return {};
  }
  if (a == b) return {};
  return path + ": " + a.dump() + " vs " + b.dump();
}

/// Largest relative change over the numbers the two values hold at the
/// same place; parts whose structure differs are skipped (first_diff
/// reports those).
double max_rel_change(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) {
    const double x = a.as_double(), y = b.as_double();
    if (x == y) return 0.0;
    const double scale = std::max(std::fabs(x), std::fabs(y));
    return std::fabs(x - y) / scale;  // inf or NaN when one side is not finite
  }
  double worst = 0.0;
  if (a.is_array() && b.is_array()) {
    const auto& xs = a.as_array();
    const auto& ys = b.as_array();
    for (std::size_t i = 0; i < std::min(xs.size(), ys.size()); ++i)
      worst = std::max(worst, max_rel_change(xs[i], ys[i]));
  } else if (a.is_object() && b.is_object()) {
    const auto& xs = a.as_object();
    const auto& ys = b.as_object();
    for (std::size_t i = 0; i < std::min(xs.size(), ys.size()); ++i)
      if (xs[i].key == ys[i].key)
        worst = std::max(worst, max_rel_change(xs[i].value, ys[i].value));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  // util::Cli rejects positional operands, and this tool is two paths plus
  // two numbers — a hand-rolled loop is clearer than bending the parser.
  std::string actual_path, golden_path, by_key;
  Tolerance tol{1e-9, 1e-12};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](double* out) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        *out = std::strtod(arg.c_str() + eq + 1, nullptr);
      } else if (i + 1 < argc) {
        *out = std::strtod(argv[++i], nullptr);
      }
    };
    if (arg.rfind("--rtol", 0) == 0) {
      flag_value(&tol.rtol);
    } else if (arg.rfind("--atol", 0) == 0) {
      flag_value(&tol.atol);
    } else if (arg.rfind("--by", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        by_key = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        by_key = argv[++i];
      }
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: ndjson_diff <actual> <golden> [--rtol X] "
                   "[--atol X] [--by KEY]\n");
      return arg == "--help" || arg == "-h" ? 0 : 1;
    } else if (actual_path.empty()) {
      actual_path = arg;
    } else if (golden_path.empty()) {
      golden_path = arg;
    } else {
      std::fprintf(stderr, "ndjson_diff: extra operand '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (actual_path.empty() || golden_path.empty()) {
    std::fprintf(stderr, "usage: ndjson_diff <actual> <golden> [--rtol X]\n");
    return 1;
  }

  std::ifstream actual(actual_path), golden(golden_path);
  if (!actual) {
    std::fprintf(stderr, "ndjson_diff: cannot open %s\n", actual_path.c_str());
    return 1;
  }
  if (!golden) {
    std::fprintf(stderr, "ndjson_diff: cannot open %s\n", golden_path.c_str());
    return 1;
  }

  std::string a_line, g_line;
  int line = 0;
  // --by groups in order of first appearance: (group, largest change).
  std::vector<std::pair<std::string, double>> groups;
  std::string first_difference;
  while (true) {
    const bool a_ok = static_cast<bool>(std::getline(actual, a_line));
    const bool g_ok = static_cast<bool>(std::getline(golden, g_line));
    ++line;
    if (!a_ok && !g_ok) break;
    if (a_ok != g_ok) {
      std::fprintf(stderr, "ndjson_diff: line %d: %s ends early\n", line,
                   a_ok ? golden_path.c_str() : actual_path.c_str());
      return 1;
    }
    Json a, g;
    try {
      a = Json::parse(a_line);
    } catch (const gs::json::ParseError& e) {
      std::fprintf(stderr, "ndjson_diff: %s line %d: %s\n",
                   actual_path.c_str(), line, e.what());
      return 1;
    }
    try {
      g = Json::parse(g_line);
    } catch (const gs::json::ParseError& e) {
      std::fprintf(stderr, "ndjson_diff: %s line %d: %s\n",
                   golden_path.c_str(), line, e.what());
      return 1;
    }
    if (!by_key.empty() && g.is_object()) {
      const Json* k = g.find(by_key);
      const std::string group = k && k->is_string() ? k->as_string() : "-";
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& e) { return e.first == group; });
      if (it == groups.end()) it = groups.insert(groups.end(), {group, 0.0});
      // std::max would drop a NaN change; keep it visible.
      const double change = max_rel_change(a, g);
      if (!(change <= it->second)) it->second = change;
    }
    if (!first_difference.empty()) continue;
    const std::string diff = first_diff(a, g, tol, "");
    if (!diff.empty()) {
      first_difference = "ndjson_diff: line " + std::to_string(line) +
                         " differs at " + diff + "\n  actual: " + a_line +
                         "\n  golden: " + g_line + "\n";
      // Without a report to finish, the first difference is all there is.
      if (by_key.empty()) break;
    }
  }
  for (const auto& [group, change] : groups)
    std::printf("ndjson_diff: %s %s: largest relative change %g\n",
                by_key.c_str(), group.c_str(), change);
  if (!first_difference.empty()) {
    std::fprintf(stderr, "%s", first_difference.c_str());
    return 1;
  }
  std::printf("ndjson_diff: %d lines equivalent (rtol %g, atol %g)\n",
              line - 1, tol.rtol, tol.atol);
  return 0;
}
