#include "gang/dot_export.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace gs::gang {

namespace {

/// Human label of a state: "(i | jA | cfg | Gk)" or "(i | jA | cfg | Fk)".
std::string label(const ClassProcess& chain, std::size_t level,
                  std::size_t local) {
  std::ostringstream os;
  if (level == 0) {
    const std::size_t ja = local / chain.away_phases();
    const std::size_t jf = local % chain.away_phases();
    os << "i=0";
    if (chain.arrival_phases() > 1) os << " a" << ja + 1;
    os << " F" << jf + 1;
    return os.str();
  }
  const std::size_t w = chain.serving_phases() + chain.away_phases();
  const std::size_t k = local % w;
  const std::size_t rest = local / w;
  const std::size_t cfg_count = chain.config_count(level);
  const std::size_t cfg = rest % cfg_count;
  const std::size_t ja = rest / cfg_count;
  os << "i=" << level;
  if (chain.arrival_phases() > 1) os << " a" << ja + 1;
  if (cfg_count > 1) {
    os << " s(";
    const auto& c = chain.configs(level)[cfg];
    for (std::size_t n = 0; n < c.size(); ++n) {
      os << c[n];
      if (n + 1 < c.size()) os << ",";
    }
    os << ")";
  }
  if (k < chain.serving_phases()) {
    os << " G" << k + 1;
  } else {
    os << " F" << k - chain.serving_phases() + 1;
  }
  return os.str();
}

}  // namespace

std::size_t write_dot(std::ostream& os, const ClassProcess& chain,
                      const DotOptions& options, std::size_t max_nodes) {
  const std::size_t c = chain.partitions();
  const std::size_t levels = options.levels;

  // Per-level offsets within the assembled corner.
  std::vector<std::size_t> off = {0};
  for (std::size_t i = 0; i <= levels; ++i)
    off.push_back(off.back() + chain.level_dim(i));
  const std::size_t n_draw = off[levels + 1];
  GS_CHECK(n_draw <= max_nodes,
           "diagram would have " + std::to_string(n_draw) +
               " states; reduce the level count or raise max_nodes");

  // The corner must extend at least to the requested levels.
  const std::size_t repeating =
      levels > c ? levels - c : std::size_t{0};
  const linalg::Matrix q = chain.process().corner(repeating + 1);

  auto node_name = [](std::size_t level, std::size_t local) {
    std::string name = "s";
    name += std::to_string(level);
    name += '_';
    name += std::to_string(local);
    return name;
  };
  auto level_of = [&](std::size_t global) {
    std::size_t lvl = 0;
    while (global >= off[lvl + 1]) ++lvl;
    return lvl;
  };

  os << "digraph class" << chain.class_index() << " {\n";
  os << "  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n";
  os << "  label=\"Per-class state-transition diagram (Figure 1 "
        "generalized)\\nG = quantum phase, F = away-period phase\";\n";

  for (std::size_t lvl = 0; lvl <= levels; ++lvl) {
    if (options.rank_by_level) os << "  { rank=same;";
    for (std::size_t local = 0; local < chain.level_dim(lvl); ++local) {
      if (options.rank_by_level) {
        os << " " << node_name(lvl, local) << ";";
      }
    }
    if (options.rank_by_level) os << " }\n";
    for (std::size_t local = 0; local < chain.level_dim(lvl); ++local) {
      os << "  " << node_name(lvl, local) << " [label=\""
         << label(chain, lvl, local) << "\"];\n";
    }
  }

  std::size_t edges = 0;
  for (std::size_t r = 0; r < n_draw; ++r) {
    const std::size_t rl = level_of(r);
    for (std::size_t col = 0; col < n_draw; ++col) {
      if (r == col) continue;
      const double rate = q(r, col);
      if (rate <= options.min_rate) continue;
      const std::size_t cl = level_of(col);
      os << "  " << node_name(rl, r - off[rl]) << " -> "
         << node_name(cl, col - off[cl]) << " [label=\""
         << std::setprecision(3) << rate << "\", fontsize=8];\n";
      ++edges;
    }
  }
  os << "}\n";
  return n_draw;
}

}  // namespace gs::gang
