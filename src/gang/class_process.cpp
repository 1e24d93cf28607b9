#include "gang/class_process.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "phase/builders.hpp"
#include "phase/fitting.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace gs::gang {

using linalg::Matrix;
using linalg::Vector;

PhaseType EffectiveQuantum::fitted(int max_order) const {
  // Degenerate corner: the class is (almost) always empty at its turn, so
  // the slice is (almost) a pure atom at zero. PH cannot represent a pure
  // atom; cap the atom and give the remainder a negligible mean.
  const double capped_atom = std::min(atom, 1.0 - 1e-9);
  if (m1 <= 1e-12) {
    return phase::with_atom(phase::exponential(1e12), capped_atom);
  }
  return phase::fit_atom_and_moments(capped_atom, m1, m2, max_order);
}

namespace {

// Rate-source layout of the chain compiled for away order m_f:
//   values = [1, S_F (row-major), s_F0, phi, s_F0[a] phi[b] (row-major)].
// The last group is the level-0 restart rate, the one product of two F_p
// quantities; build() forms it as s_F0[a] * phi[b] and so does
// fill_values, so the program reads the same bits.
struct AwaySources {
  std::size_t m_f;
  std::uint32_t sf(std::size_t a, std::size_t b) const {
    return static_cast<std::uint32_t>(1 + a * m_f + b);
  }
  std::uint32_t sf0(std::size_t a) const {
    return static_cast<std::uint32_t>(1 + m_f * m_f + a);
  }
  std::uint32_t phi(std::size_t a) const {
    return static_cast<std::uint32_t>(1 + m_f * m_f + m_f + a);
  }
  std::uint32_t restart(std::size_t a, std::size_t b) const {
    return static_cast<std::uint32_t>(1 + m_f * m_f + 2 * m_f + a * m_f + b);
  }
  std::size_t count() const { return 1 + 2 * m_f * m_f + 2 * m_f; }
};

// ClassProcess::enumerate sink of build(): each rate is a double, added
// straight into the blocks and its state's out-rate. A zero rate is
// skipped, as the compiled program may skip it.
struct DirectSink {
  using Rate = double;
  const Matrix& sf;
  const Vector& sf0;
  const Vector& phi;
  qbd::QbdBlocks& blocks;
  std::vector<double>& out;

  double constant(double c) const { return c; }
  double sf_entry(std::size_t a, std::size_t b) const { return sf(a, b); }
  double restart(std::size_t a, std::size_t b) const { return sf0[a] * phi[b]; }
  double phi_times(double c, std::size_t b) const { return c * phi[b]; }
  double sf0_times(std::size_t a, double c) const { return sf0[a] * c; }
  void emit(std::uint32_t block, std::size_t row, std::size_t col,
            std::uint32_t slot, double rate) {
    if (rate == 0.0) return;
    qbd::BlockIds::of(blocks, block)(row, col) += rate;
    if (slot != qbd::RateProgram::kNoOut) out[slot] += rate;
  }
  void subtract_out(std::uint32_t block, std::size_t row, std::uint32_t slot) {
    qbd::BlockIds::of(blocks, block)(row, row) -= out[slot];
  }
};

// One bit per rate source: the support of an away period's source
// values (which are nonzero), or the sources a program was compiled for.
bool has(const std::vector<std::uint64_t>& support, std::uint32_t src) {
  return (support[src / 64] >> (src % 64)) & 1;
}

// ClassProcess::enumerate sink of compile(): each rate is a coefficient
// times one rate source, recorded as a program transition. coef * 1.0,
// 1.0 * x and c * x are the bits DirectSink computes (x * 1.0 == x, and
// IEEE multiplication commutes). A zero coefficient gives a zero rate,
// and so does a source outside `support`, which the program only serves
// for values that are zero there; either transition is skipped.
struct ProgramSink {
  struct Rate {
    double coef;
    std::uint32_t src;
  };
  AwaySources src;
  const std::vector<std::uint64_t>& support;
  qbd::RateProgram& program;

  Rate constant(double c) const { return {c, 0}; }
  Rate sf_entry(std::size_t a, std::size_t b) const { return {1.0, src.sf(a, b)}; }
  Rate restart(std::size_t a, std::size_t b) const {
    return {1.0, src.restart(a, b)};
  }
  Rate phi_times(double c, std::size_t b) const { return {c, src.phi(b)}; }
  Rate sf0_times(std::size_t a, double c) const { return {c, src.sf0(a)}; }
  void emit(std::uint32_t block, std::size_t row, std::size_t col,
            std::uint32_t slot, Rate rate) {
    if (rate.coef == 0.0 || (rate.src != 0 && !has(support, rate.src))) return;
    program.add(block, row, col, slot, rate.coef, rate.src);
  }
  void subtract_out(std::uint32_t block, std::size_t row, std::uint32_t slot) {
    program.subtract_out(block, row, slot);
  }
};

}  // namespace

ClassProcess::ClassProcess(const SystemParams& sys, std::size_t p,
                           PhaseType away, qbd::Workspace* ws)
    : p_(p),
      c_(sys.partitions(p)),
      arrival_(sys.cls(p).arrival),
      service_(sys.cls(p).service),
      quantum_(sys.cls(p).quantum),
      away_(std::move(away)),
      m_a_(arrival_.order()),
      m_b_(service_.order()),
      m_q_(quantum_.order()),
      m_f_(away_.order()),
      w_(m_q_ + m_f_),
      cfgs_(m_b_, c_),
      ws_(ws) {
  GS_CHECK(away_.atom_at_zero() == 0.0,
           "away-period distribution must not have an atom at zero (switch "
           "overheads are strictly positive)");
  GS_CHECK(sys.cls(p).batch_pmf.size() == 1,
           "the analytic solver supports single arrivals only; batch "
           "arrivals are a simulator feature (see DESIGN.md)");
  install();
}

void ClassProcess::update_away(PhaseType away) {
  GS_CHECK(away.atom_at_zero() == 0.0,
           "away-period distribution must not have an atom at zero (switch "
           "overheads are strictly positive)");
  obs::Span span("gang.revalue");
  away_ = std::move(away);
  m_f_ = away_.order();
  w_ = m_q_ + m_f_;
  install();
}

void ClassProcess::install() {
  qbd::RateBuffers& buf = buffers();
  fill_values(buf.values);
  // The support of the current values: the nonzero S_F and phi entries,
  // every exit rate, and the restart products of those. An exit rate is
  // max(0, -row sum of S_F), so a phase without exit reads 0 or a
  // rounding-sized rate from one iteration to the next; counting every
  // exit in keeps that from recompiling the order.
  const AwaySources src{m_f_};
  support_.assign((src.count() + 63) / 64, 0);
  const auto set = [&](std::uint32_t i) {
    support_[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  for (std::size_t a = 0; a < m_f_; ++a) {
    set(src.sf0(a));
    if (buf.values[src.phi(a)] != 0.0) {
      set(src.phi(a));
      for (std::size_t e = 0; e < m_f_; ++e) set(src.restart(e, a));
    }
    for (std::size_t b = 0; b < m_f_; ++b)
      if (buf.values[src.sf(a, b)] != 0.0) set(src.sf(a, b));
  }

  // An order's first away period is assembled directly: many orders
  // (the heavy-traffic start, a fit's passing order) appear only once,
  // and a program pays for its compilation over several replays.
  auto [it, first_sight] = programs_.try_emplace(m_f_);
  Compiled& c = it->second;
  const bool live_order = process_ && live_order_ == m_f_;
  live_order_ = m_f_;
  if (first_sight) {
    c.support = support_;
    process_.emplace(build());
    live_id_ = 0;
    return;
  }
  bool covered = c.program.has_value();
  for (std::size_t k = 0; k < support_.size(); ++k) {
    covered = covered && (support_[k] & ~c.support[k]) == 0;
    c.support[k] |= support_[k];
  }
  if (covered) {
    if (process_ && c.id == live_id_) {
      process_->revalue(*c.program, buf);
    } else {
      process_.emplace(*c.program, buf);
      live_id_ = c.id;
    }
    return;
  }
  // Compile for every source seen nonzero at this order and seal the
  // program against an evaluation of it. A live process of this order
  // is one: its cells outside the program's reach hold constant rates
  // only, and the support only grows, so they are the program's
  // constant cells. Else evaluate every transition once.
  c.program.emplace(compile(c.support));
  c.id = live_id_ = ++compiled_;
  if (live_order) {
    c.program->seal(process_->blocks());
    process_->revalue(*c.program, buf);
  } else {
    process_.emplace(*c.program, buf);
    c.program->seal(process_->blocks());
  }
}

std::size_t ClassProcess::level_dim(std::size_t level) const {
  if (level == 0) return m_a_ * m_f_;
  const std::size_t s = std::min(level, c_);
  return m_a_ * cfgs_.count(s) * w_;
}

std::size_t ClassProcess::index_level0(std::size_t j_a,
                                       std::size_t away_phase) const {
  GS_ASSERT(j_a < m_a_ && away_phase < m_f_);
  return j_a * m_f_ + away_phase;
}

std::size_t ClassProcess::index(std::size_t level, std::size_t j_a,
                                std::size_t cfg_idx, std::size_t k) const {
  GS_ASSERT(level >= 1);
  const std::size_t s = std::min(level, c_);
  GS_ASSERT(j_a < m_a_ && cfg_idx < cfgs_.count(s) && k < w_);
  return (j_a * cfgs_.count(s) + cfg_idx) * w_ + k;
}

template <class Sink>
void ClassProcess::enumerate(Sink& sink) const {
  const Matrix& sa = arrival_.generator();
  const Vector& sa0 = arrival_.exit_rates();
  const Vector& alpha_a = arrival_.alpha();
  const Matrix& sb = service_.generator();
  const Vector& sb0 = service_.exit_rates();
  const Vector& beta = service_.alpha();
  const Matrix& sg = quantum_.generator();
  const Vector& sg0 = quantum_.exit_rates();
  const Vector& alpha_g = quantum_.alpha();
  const qbd::BlockIds id{c_};
  constexpr std::uint32_t kNoOut = qbd::RateProgram::kNoOut;

  // Out-rate slots: boundary-interior levels 0..c-1 at off[i] + state,
  // level c at D + state.
  std::vector<std::size_t> off(c_, 0);
  for (std::size_t i = 1; i < c_; ++i) off[i] = off[i - 1] + level_dim(i - 1);
  const std::size_t D = c_ == 0 ? 0 : off[c_ - 1] + level_dim(c_ - 1);
  const std::size_t d = level_dim(c_);
  const auto slot = [](std::size_t s) { return static_cast<std::uint32_t>(s); };

  // Route a transition from boundary-interior level i to level j, which
  // is always i-1, i or i+1 (level c's block when j == c).
  const auto from_boundary = [&](std::size_t i, std::size_t idx_from,
                                 std::size_t j, std::size_t idx_to,
                                 auto rate) {
    const std::uint32_t out = slot(off[i] + idx_from);
    if (j == i) {
      sink.emit(id.diag(i), idx_from, idx_to, out, rate);
    } else if (j == i + 1) {
      sink.emit(id.up(i), idx_from, idx_to, out, rate);
    } else {
      GS_ASSERT(j + 1 == i);
      sink.emit(id.down(j), idx_from, idx_to, out, rate);
    }
  };

  // Level 0: states (j_a, away phase).
  for (std::size_t ja = 0; ja < m_a_; ++ja) {
    for (std::size_t jf = 0; jf < m_f_; ++jf) {
      const std::size_t from = index_level0(ja, jf);
      // Arrival-phase internals.
      for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
        if (ja2 != ja)
          from_boundary(0, from, 0, index_level0(ja2, jf),
                        sink.constant(sa(ja, ja2)));
      }
      // Arrival: the job takes a partition, service phase from beta; the
      // cycle stays in the same away phase.
      for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
        for (std::size_t n = 0; n < m_b_; ++n) {
          const double rate = sa0[ja] * alpha_a[ja2] * beta[n];
          if (rate == 0.0) continue;
          Config cfg(m_b_, 0);
          cfg[n] = 1;
          const std::size_t idx_to =
              index(1, ja2, cfgs_.index_of(cfg), m_q_ + jf);
          from_boundary(0, from, 1, idx_to, sink.constant(rate));
        }
      }
      // Away-period internals.
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        if (jf2 != jf)
          from_boundary(0, from, 0, index_level0(ja, jf2),
                        sink.sf_entry(jf, jf2));
      }
      // Away completion with an empty queue: class p's slice has zero
      // length; the away period restarts (self-loops cancel on the
      // diagonal automatically).
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        from_boundary(0, from, 0, index_level0(ja, jf2),
                      sink.restart(jf, jf2));
      }
    }
  }

  // Per-state transition enumeration for levels 1..c. `emit` receives
  // (target_level, target_idx, rate) with target_idx computed in the
  // target level's own layout.
  auto enumerate_level = [&](std::size_t i, std::size_t ja,
                             const Config& cfg, std::size_t k, auto&& emit) {
    GS_ASSERT(i >= 1 && i <= c_);
    const std::size_t cfg_idx = cfgs_.index_of(cfg);
    // Arrival-phase internals.
    for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
      if (ja2 != ja)
        emit(i, index(i, ja2, cfg_idx, k), sink.constant(sa(ja, ja2)));
    }
    // Arrival event.
    for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
      const double base = sa0[ja] * alpha_a[ja2];
      if (base == 0.0) continue;
      if (i < c_) {
        for (std::size_t n = 0; n < m_b_; ++n) {
          if (beta[n] == 0.0) continue;
          const Config up = cfgs_.with_added(cfg, n);
          emit(i + 1, index(i + 1, ja2, cfgs_.index_of(up), k),
               sink.constant(base * beta[n]));
        }
      } else {
        emit(i + 1, index(i + 1, ja2, cfg_idx, k), sink.constant(base));
      }
    }
    if (k < m_q_) {
      // Class p is being served: service and quantum clocks run.
      for (std::size_t n = 0; n < m_b_; ++n) {
        if (cfg[n] == 0) continue;
        const double jobs = static_cast<double>(cfg[n]);
        // Service-phase internals.
        for (std::size_t n2 = 0; n2 < m_b_; ++n2) {
          if (n2 == n) continue;
          const double rate = jobs * sb(n, n2);
          if (rate == 0.0) continue;
          const Config moved = cfgs_.with_moved(cfg, n, n2);
          emit(i, index(i, ja, cfgs_.index_of(moved), k), sink.constant(rate));
        }
        // Completion.
        const double crate = jobs * sb0[n];
        if (crate == 0.0) continue;
        if (i == 1) {
          // Queue empties: immediate switch into the away period.
          for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2)
            emit(0, index_level0(ja, jf2), sink.phi_times(crate, jf2));
        } else {
          // A partition goes idle; no queued job to take it.
          const Config down = cfgs_.with_removed(cfg, n);
          emit(i - 1, index(i - 1, ja, cfgs_.index_of(down), k),
               sink.constant(crate));
        }
      }
      // Quantum internals.
      for (std::size_t k2 = 0; k2 < m_q_; ++k2) {
        if (k2 != k)
          emit(i, index(i, ja, cfg_idx, k2), sink.constant(sg(k, k2)));
      }
      // Quantum expiry -> away period begins.
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        emit(i, index(i, ja, cfg_idx, m_q_ + jf2), sink.phi_times(sg0[k], jf2));
      }
    } else {
      // Away period: only the cycle's away phase moves (and arrivals).
      const std::size_t jf = k - m_q_;
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        if (jf2 != jf)
          emit(i, index(i, ja, cfg_idx, m_q_ + jf2), sink.sf_entry(jf, jf2));
      }
      // Away completion with work present: the next slice begins.
      for (std::size_t kq = 0; kq < m_q_; ++kq) {
        emit(i, index(i, ja, cfg_idx, kq), sink.sf0_times(jf, alpha_g[kq]));
      }
    }
  };

  // Boundary-interior levels 1..c-1.
  for (std::size_t i = 1; i < c_; ++i) {
    for (std::size_t ja = 0; ja < m_a_; ++ja) {
      for (const Config& cfg : cfgs_.configs(std::min(i, c_))) {
        for (std::size_t k = 0; k < w_; ++k) {
          const std::size_t from = index(i, ja, cfgs_.index_of(cfg), k);
          enumerate_level(i, ja, cfg, k,
                          [&](std::size_t lvl, std::size_t idx, auto rate) {
                            from_boundary(i, from, lvl, idx, rate);
                          });
        }
      }
    }
  }

  // Level c (the last boundary level) and the repeating template. A single
  // enumeration of level-c states yields B11, the last down block L_{c-1}
  // and A0 directly; the repeating A1 gets B11's within-level rates too
  // (identical within-level dynamics, the diagonal still to come), and A2
  // is the completion-with-refill variant of the down transitions. A1 and
  // A2 feed no out-rate: the repeating levels have level c's total
  // out-rate (completion totals are independent of whether the freed
  // partition is refilled).
  for (std::size_t ja = 0; ja < m_a_; ++ja) {
    for (const Config& cfg : cfgs_.configs(c_)) {
      for (std::size_t k = 0; k < w_; ++k) {
        const std::size_t from = index(c_, ja, cfgs_.index_of(cfg), k);
        const std::uint32_t out = slot(D + from);
        enumerate_level(
            c_, ja, cfg, k, [&](std::size_t lvl, std::size_t idx, auto rate) {
              if (lvl == c_) {
                sink.emit(id.b11(), from, idx, out, rate);
                sink.emit(id.a1(), from, idx, kNoOut, rate);
              } else if (lvl == c_ + 1) {
                sink.emit(id.a0(), from, idx, out, rate);
              } else {
                GS_ASSERT(lvl + 1 == c_);
                sink.emit(id.down(c_ - 1), from, idx, out, rate);
              }
            });
        if (k >= m_q_) continue;  // completions only when serving
        for (std::size_t n = 0; n < m_b_; ++n) {
          if (cfg[n] == 0) continue;
          const double crate = static_cast<double>(cfg[n]) * sb0[n];
          if (crate == 0.0) continue;
          for (std::size_t n2 = 0; n2 < m_b_; ++n2) {
            if (beta[n2] == 0.0) continue;
            const Config refilled =
                cfgs_.with_added(cfgs_.with_removed(cfg, n), n2);
            sink.emit(id.a2(), from,
                      index(c_, ja, cfgs_.index_of(refilled), k), kNoOut,
                      sink.constant(crate * beta[n2]));
          }
        }
      }
    }
  }

  // Diagonals: subtract total out-rates; A1 shares level c's.
  for (std::size_t i = 0; i < c_; ++i)
    for (std::size_t s = 0; s < level_dim(i); ++s)
      sink.subtract_out(id.diag(i), s, slot(off[i] + s));
  for (std::size_t s = 0; s < d; ++s) {
    sink.subtract_out(id.b11(), s, slot(D + s));
    sink.subtract_out(id.a1(), s, slot(D + s));
  }
}

qbd::QbdBlocks ClassProcess::build() const {
  qbd::QbdBlocks blk;
  blk.diag.resize(c_);
  blk.up.resize(c_);
  blk.down.resize(c_);
  std::size_t slots = 0;
  for (std::size_t i = 0; i < c_; ++i) {
    blk.diag[i].assign_zero(level_dim(i), level_dim(i));
    blk.up[i].assign_zero(level_dim(i), level_dim(i + 1));
    blk.down[i].assign_zero(level_dim(i + 1), level_dim(i));
    slots += level_dim(i);
  }
  const std::size_t d = level_dim(c_);
  for (Matrix* m : {&blk.b11, &blk.a0, &blk.a1, &blk.a2}) m->assign_zero(d, d);
  std::vector<double> out(slots + d, 0.0);
  DirectSink sink{away_.generator(), away_.exit_rates(), away_.alpha(), blk,
                  out};
  enumerate(sink);
  return blk;
}

qbd::RateProgram ClassProcess::compile(
    const std::vector<std::uint64_t>& support) const {
  obs::count("gang.revalue.compiled");
  std::vector<std::size_t> dims(c_);
  std::size_t slots = 0;
  for (std::size_t i = 0; i < c_; ++i) slots += dims[i] = level_dim(i);
  const AwaySources src{m_f_};
  qbd::RateProgram program(std::move(dims), level_dim(c_),
                           slots + level_dim(c_), src.count());
  ProgramSink sink{src, support, program};
  enumerate(sink);
  return program;
}

void ClassProcess::fill_values(std::vector<double>& values) const {
  const Matrix& sf = away_.generator();
  const Vector& sf0 = away_.exit_rates();
  const Vector& phi = away_.alpha();
  const AwaySources src{m_f_};
  values.resize(src.count());
  values[0] = 1.0;
  for (std::size_t a = 0; a < m_f_; ++a) {
    values[src.sf0(a)] = sf0[a];
    values[src.phi(a)] = phi[a];
    for (std::size_t b = 0; b < m_f_; ++b) {
      values[src.sf(a, b)] = sf(a, b);
      values[src.restart(a, b)] = sf0[a] * phi[b];
    }
  }
}

double ClassProcess::serving_time_fraction(
    const qbd::QbdSolution& sol) const {
  // Serving states are those with k < m_q_ at levels >= 1; the repeating
  // tail is aggregated by pi_c (I-R)^{-1}.
  double mass = 0.0;
  auto add_level_vector = [&](const Vector& pi, std::size_t s) {
    for (std::size_t ja = 0; ja < m_a_; ++ja)
      for (std::size_t cfg = 0; cfg < cfgs_.count(s); ++cfg)
        for (std::size_t k = 0; k < m_q_; ++k)
          mass += pi[(ja * cfgs_.count(s) + cfg) * w_ + k];
  };
  for (std::size_t i = 1; i < c_; ++i)
    add_level_vector(sol.boundary_level(i), std::min(i, c_));
  add_level_vector(sol.repeating_phase_mass(), c_);
  return mass;
}

ClassProcess::ArrivalView ClassProcess::arrival_view(
    const qbd::QbdSolution& sol) const {
  const Vector& sa0 = arrival_.exit_rates();
  // Mean residual away time from each away phase: r = (-S_F)^{-1} e.
  Matrix neg_sf = away_.generator();
  neg_sf *= -1.0;
  const Vector residual = linalg::Lu(neg_sf).solve(linalg::ones(m_f_));

  ArrivalView view;
  double total_flow = 0.0;
  double slice_wait_weighted = 0.0;

  // Level 0: always a free partition, always during the away period.
  {
    const Vector& pi0 = sol.boundary_level(0);
    for (std::size_t ja = 0; ja < m_a_; ++ja) {
      for (std::size_t jf = 0; jf < m_f_; ++jf) {
        const double flow = pi0[index_level0(ja, jf)] * sa0[ja];
        view.prob_wait_for_slice += flow;
        slice_wait_weighted += flow * residual[jf];
        total_flow += flow;
      }
    }
  }
  // Levels 1..c-1: a partition is free; the cycle phase decides.
  for (std::size_t i = 1; i < c_; ++i) {
    const Vector& pi = sol.boundary_level(i);
    const std::size_t s = std::min(i, c_);
    for (std::size_t ja = 0; ja < m_a_; ++ja) {
      for (std::size_t cfg = 0; cfg < cfgs_.count(s); ++cfg) {
        for (std::size_t k = 0; k < w_; ++k) {
          const double flow = pi[index(i, ja, cfg, k)] * sa0[ja];
          total_flow += flow;
          if (k < m_q_) {
            view.prob_immediate += flow;
          } else {
            view.prob_wait_for_slice += flow;
            slice_wait_weighted += flow * residual[k - m_q_];
          }
        }
      }
    }
  }
  // Levels >= c (aggregated by the matrix-geometric tail): queued.
  {
    const Vector agg = sol.repeating_phase_mass();
    for (std::size_t ja = 0; ja < m_a_; ++ja) {
      for (std::size_t cfg = 0; cfg < cfgs_.count(c_); ++cfg) {
        for (std::size_t k = 0; k < w_; ++k) {
          const double flow =
              agg[(ja * cfgs_.count(c_) + cfg) * w_ + k] * sa0[ja];
          view.prob_queued += flow;
          total_flow += flow;
        }
      }
    }
  }
  GS_CHECK(total_flow > 0.0, "no arrival flow observed");
  view.prob_immediate /= total_flow;
  view.prob_wait_for_slice /= total_flow;
  view.prob_queued /= total_flow;
  view.mean_slice_wait = view.prob_wait_for_slice > 0.0
                             ? slice_wait_weighted /
                                   (total_flow * view.prob_wait_for_slice)
                             : 0.0;
  return view;
}

ClassProcess::TruncScan ClassProcess::truncation_scan(
    const qbd::QbdSolution& sol, const TruncationOptions& trunc,
    Vector& xi) const {
  // Truncation depth: deep enough that the remaining geometric tail is
  // below tail_eps. The lazy scan consumes the identical incremental
  // dot/multiply chain as the eager tail_mass_sequence did, but stops
  // paying the O(d^2) advance at l_max instead of always walking out to
  // max_levels — the old scan's dominant cost at moderate loads.
  //
  // Slice beginnings (the initial vector xi of Theorem 4.3) are the flow
  // through the away-exit transitions; the level-0 flow is the atom
  // (zero-length slice). Levels 1..b come from the boundary vectors, and
  // each level b+k above from the scan's own pi_b R^k, the vector it has
  // just weighed: one carried vector, advanced one multiply per level,
  // serves both the depth test and xi.
  const std::size_t b = sol.boundary_levels() - 1;
  GS_ASSERT(b == c_);  // the class chain's boundary is levels 0..c_
  TruncScan out;
  const Vector& sf0 = away_.exit_rates();
  const Vector& pi0 = sol.boundary_level(0);
  for (std::size_t ja = 0; ja < m_a_; ++ja)
    for (std::size_t jf = 0; jf < m_f_; ++jf)
      out.atom_flow += pi0[index_level0(ja, jf)] * sf0[jf];
  xi.clear();
  for (std::size_t i = 1; i <= b; ++i)
    add_slice_starts(sol.boundary_level(i), i, xi);

  qbd::QbdSolution::TailScan scan = sol.tail_scan();
  scan.next();  // entry 0 (tail at the last boundary level): never tested
  out.l_max = c_ + 1;
  out.cap_tail = scan.next();
  add_slice_starts(scan.level_vector(), out.l_max, xi);
  // A class near its stability boundary walks to max_levels and takes
  // the saturated path, which reads neither xi nor the deeper tail. Stop
  // at the first level whose tail, times the scan's decay floor to the
  // power of the levels left (`reach`), stays above both tail_eps and
  // saturated_tail: the walk would then go on to max_levels and end
  // saturated there.
  const double decay = scan.decay_floor();
  const double stays_above = std::max(trunc.tail_eps, trunc.saturated_tail);
  double reach =
      decay > 0.0 && out.l_max < trunc.max_levels
          ? std::pow(decay, static_cast<double>(trunc.max_levels - out.l_max))
          : 0.0;
  if (reach < std::numeric_limits<double>::min()) reach = 0.0;  // no subnormals
  while (out.l_max < trunc.max_levels && out.cap_tail > trunc.tail_eps) {
    if (out.cap_tail * reach > stays_above) {
      out.l_max = trunc.max_levels;
      out.cap_tail *= reach;  // a floor on the tail at the cap
      return out;
    }
    ++out.l_max;
    out.cap_tail = scan.next();
    add_slice_starts(scan.level_vector(), out.l_max, xi);
    reach = decay > 0.0 ? reach / decay : 0.0;
  }
  if (out.cap_tail > trunc.tail_eps && out.cap_tail <= trunc.saturated_tail) {
    log::debug("effective quantum truncation capped at ", trunc.max_levels,
               " levels (tail mass ", out.cap_tail, ")");
  }
  return out;
}

EffectiveQuantum ClassProcess::saturated_quantum(const qbd::QbdSolution& sol,
                                                 std::size_t l_max,
                                                 bool want_exact) const {
  // The class operates so close to its stability boundary that the
  // geometric tail barely decays: the queue essentially never drains
  // within a slice, so the effective quantum degenerates to the full
  // quantum (Theorem 4.1's regime). Computing moments from a hard-
  // censored chain here would bias them short; use the exact limit
  // instead (the slice-start atom from the captured flow is still
  // meaningful and tiny).
  const Vector& sf0 = away_.exit_rates();
  EffectiveQuantum out;
  out.truncation_levels = l_max;
  double atom_flow = 0.0;
  double busy_flow = 0.0;
  {
    const Vector& pi0 = sol.boundary_level(0);
    for (std::size_t ja = 0; ja < m_a_; ++ja)
      for (std::size_t jf = 0; jf < m_f_; ++jf)
        atom_flow += pi0[index_level0(ja, jf)] * sf0[jf];
  }
  // Busy-slice-start flow over ALL levels >= 1: explicit boundary
  // levels plus the aggregated matrix-geometric tail (the whole point
  // here is that the tail does not fit under the level cap).
  auto add_away_flow = [&](const Vector& pi, std::size_t s) {
    for (std::size_t ja = 0; ja < m_a_; ++ja)
      for (std::size_t cfg = 0; cfg < cfgs_.count(s); ++cfg)
        for (std::size_t jf = 0; jf < m_f_; ++jf)
          busy_flow +=
              pi[(ja * cfgs_.count(s) + cfg) * w_ + m_q_ + jf] * sf0[jf];
  };
  for (std::size_t i = 1; i < c_; ++i)
    add_away_flow(sol.boundary_level(i), std::min(i, c_));
  add_away_flow(sol.repeating_phase_mass(), c_);
  const double total = atom_flow + busy_flow;
  out.atom = total > 0.0 ? atom_flow / total : 0.0;
  const double busy = 1.0 - out.atom;
  out.m1 = busy * quantum_.moment(1);
  out.m2 = busy * quantum_.moment(2);
  if (want_exact) {
    out.exact = phase::with_atom(quantum_, out.atom);
  }
  return out;
}

std::size_t ClassProcess::serving_dim(std::size_t level) const {
  // Serving-state blocks per level 1..l_max: dimension m_a * C(s) * m_q.
  return m_a_ * cfgs_.count(std::min(level, c_)) * m_q_;
}

std::size_t ClassProcess::serving_index(std::size_t level, std::size_t j_a,
                                        std::size_t cfg_idx,
                                        std::size_t k) const {
  return (j_a * cfgs_.count(std::min(level, c_)) + cfg_idx) * m_q_ + k;
}

void ClassProcess::serving_row(std::size_t level, bool censored,
                               Matrix& lower, Matrix& diag,
                               Matrix& upper) const {
  const Matrix& sa = arrival_.generator();
  const Vector& sa0 = arrival_.exit_rates();
  const Vector& alpha_a = arrival_.alpha();
  const Matrix& sb = service_.generator();
  const Vector& sb0 = service_.exit_rates();
  const Vector& beta = service_.alpha();
  const Matrix& sg = quantum_.generator();

  const std::size_t i = level;
  auto sidx = [&](std::size_t lvl, std::size_t ja, std::size_t cfg_idx,
                  std::size_t k) { return serving_index(lvl, ja, cfg_idx, k); };

  // Block row i of T: diag, upper (arrivals), lower (completions staying
  // busy).
  diag.assign_zero(serving_dim(i), serving_dim(i));
  if (censored) {
    upper.assign_zero(0, 0);
  } else {
    upper.assign_zero(serving_dim(i), serving_dim(i + 1));
  }
  if (i == 1) {
    lower.assign_zero(0, 0);
  } else {
    lower.assign_zero(serving_dim(i), serving_dim(i - 1));
  }

  const std::size_t s = std::min(i, c_);
  for (std::size_t ja = 0; ja < m_a_; ++ja) {
    for (const Config& cfg : cfgs_.configs(s)) {
      const std::size_t cfg_idx = cfgs_.index_of(cfg);
      for (std::size_t k = 0; k < m_q_; ++k) {
        const std::size_t from = sidx(i, ja, cfg_idx, k);
        double out = 0.0;
        // Arrival-phase internals.
        for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
          if (ja2 == ja) continue;
          diag(from, sidx(i, ja2, cfg_idx, k)) += sa(ja, ja2);
          out += sa(ja, ja2);
        }
        // Arrivals: censored at the truncation boundary.
        if (!censored) {
          for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
            const double base = sa0[ja] * alpha_a[ja2];
            if (base == 0.0) continue;
            if (i < c_) {
              for (std::size_t n = 0; n < m_b_; ++n) {
                if (beta[n] == 0.0) continue;
                const Config up_cfg = cfgs_.with_added(cfg, n);
                upper(from, sidx(i + 1, ja2, cfgs_.index_of(up_cfg), k)) +=
                    base * beta[n];
              }
            } else {
              upper(from, sidx(i + 1, ja2, cfg_idx, k)) += base;
            }
            out += base;
          }
        }
        // Service moves and completions.
        for (std::size_t n = 0; n < m_b_; ++n) {
          if (cfg[n] == 0) continue;
          const double jobs = static_cast<double>(cfg[n]);
          for (std::size_t n2 = 0; n2 < m_b_; ++n2) {
            if (n2 == n) continue;
            const double rate = jobs * sb(n, n2);
            if (rate == 0.0) continue;
            const Config moved = cfgs_.with_moved(cfg, n, n2);
            diag(from, sidx(i, ja, cfgs_.index_of(moved), k)) += rate;
            out += rate;
          }
          const double crate = jobs * sb0[n];
          if (crate == 0.0) continue;
          out += crate;  // absorption when i == 1, down otherwise
          if (i == 1) continue;
          if (i <= c_) {
            const Config down_cfg = cfgs_.with_removed(cfg, n);
            lower(from, sidx(i - 1, ja, cfgs_.index_of(down_cfg), k)) +=
                crate;
          } else {
            for (std::size_t n2 = 0; n2 < m_b_; ++n2) {
              if (beta[n2] == 0.0) continue;
              const Config refilled =
                  cfgs_.with_added(cfgs_.with_removed(cfg, n), n2);
              lower(from, sidx(i - 1, ja, cfgs_.index_of(refilled), k)) +=
                  crate * beta[n2];
            }
          }
        }
        // Quantum internals and expiry (expiry absorbs).
        for (std::size_t k2 = 0; k2 < m_q_; ++k2) {
          if (k2 == k) continue;
          diag(from, sidx(i, ja, cfg_idx, k2)) += sg(k, k2);
          out += sg(k, k2);
        }
        out += quantum_.exit_rates()[k];
        diag(from, from) -= out;
      }
    }
  }
}

void ClassProcess::add_slice_starts(const Vector& pi, std::size_t level,
                                    Vector& xi) const {
  // A level's states are (j_a, cfg) groups, ascending, of w_ phases in pi
  // (see index) and of m_q_ phases in xi (see serving_index).
  const Vector& alpha_g = quantum_.alpha();
  const Vector& sf0 = away_.exit_rates();
  const std::size_t groups = m_a_ * cfgs_.count(std::min(level, c_));
  const std::size_t block_off = xi.size();
  xi.resize(block_off + groups * m_q_, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    const double* away = pi.data() + g * w_ + m_q_;
    double flow = 0.0;
    for (std::size_t jf = 0; jf < m_f_; ++jf) flow += away[jf] * sf0[jf];
    if (flow == 0.0) continue;
    double* out = xi.data() + block_off + g * m_q_;
    for (std::size_t kq = 0; kq < m_q_; ++kq) out[kq] += flow * alpha_g[kq];
  }
}

const ClassProcess::RepeatingRows& ClassProcess::repeating_rows() {
  if (!repeating_rows_) {
    RepeatingRows& rows = repeating_rows_.emplace();
    serving_row(c_ + 1, /*censored=*/false, rows.lower, rows.diag,
                rows.upper);
    rows.lower *= -1.0;
    rows.diag *= -1.0;
    rows.upper *= -1.0;
    Matrix lower, upper;
    serving_row(c_ + 1, /*censored=*/true, lower, rows.censored_diag, upper);
    rows.censored_diag *= -1.0;
  }
  return *repeating_rows_;
}

void ClassProcess::grow_serving_factor(std::size_t levels) {
  // Rows 1..c_ differ level by level and are assembled as pushed (each
  // once per object); every row above c_ is the same block row.
  Matrix lower, diag, upper;
  while (serving_factor_.levels() < levels) {
    const std::size_t level = serving_factor_.levels() + 1;
    if (level > c_) {
      const RepeatingRows& rows = repeating_rows();
      serving_factor_.push(rows.lower, rows.diag, rows.upper);
      continue;
    }
    serving_row(level, /*censored=*/false, lower, diag, upper);
    lower *= -1.0;
    diag *= -1.0;
    upper *= -1.0;
    serving_factor_.push(lower, diag, upper);
  }
}

EffectiveQuantum ClassProcess::effective_quantum(
    const qbd::QbdSolution& sol, const TruncationOptions& trunc,
    bool want_exact) {
  obs::count("gang.effq.calls");
  Vector& xi = xi_;
  const TruncScan scan = truncation_scan(sol, trunc, xi);
  const std::size_t l_max = scan.l_max;
  if (scan.cap_tail > trunc.saturated_tail) {
    log::debug("effective quantum saturated (tail mass at least ",
               scan.cap_tail, " at the level cap); using the full quantum");
    return saturated_quantum(sol, l_max, want_exact);
  }
  const double atom_flow = scan.atom_flow;
  const std::size_t total_dim = xi.size();

  double total_flow = atom_flow;
  for (double v : xi) total_flow += v;
  GS_CHECK(total_flow > 0.0,
           "no slice-start flow observed; the away period never completes");
  for (double& v : xi) v /= total_flow;

  EffectiveQuantum out;
  out.atom = atom_flow / total_flow;
  out.truncation_levels = l_max;

  // Moments via two solves with -T: E[T~^k] = k! xi (-T)^{-k} e. The
  // solves depend on the depth alone; a depth other than the kept one
  // eliminates -T's uncensored levels up to the cut (only the levels no
  // earlier call reached), factors the censored last level alone, and
  // replaces the kept pair.
  if (l_max == kept_depth_) {
    obs::count("gang.effq.depth_reused");
  } else {
    const std::size_t factored = serving_factor_.levels();
    grow_serving_factor(l_max);
    obs::count("gang.effq.levels_factored",
               serving_factor_.levels() - factored);
    kept_depth_ = 0;  // a throw below leaves no stale pair behind
    // The cut is above level c_ (truncation_scan starts at c_ + 1), where
    // the censored row is the same at every depth.
    const linalg::BlockTridiagFactor::Truncated neg_t =
        serving_factor_.truncate(l_max, repeating_rows().censored_diag);
    neg_t.solve_into(linalg::ones(total_dim), kept_v1_);
    neg_t.solve_into(kept_v1_, kept_v2_);
    kept_depth_ = l_max;
  }
  out.m1 = linalg::dot(xi, kept_v1_);
  out.m2 = 2.0 * linalg::dot(xi, kept_v2_);

  if (want_exact) {
    Matrix lower, diag, upper;
    Matrix t(total_dim, total_dim);
    std::size_t roff = 0;
    for (std::size_t i = 1; i <= l_max; ++i) {
      serving_row(i, /*censored=*/i == l_max, lower, diag, upper);
      t.insert_block(roff, roff, diag);
      if (i < l_max) t.insert_block(roff, roff + diag.rows(), upper);
      if (i > 1) t.insert_block(roff, roff - lower.cols(), lower);
      roff += diag.rows();
    }
    out.exact.emplace(xi, std::move(t));
  }
  return out;
}

}  // namespace gs::gang
