#include "gang/class_process.hpp"

#include <algorithm>
#include <cmath>

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
  build();
}

void ClassProcess::update_away(PhaseType away) {
  GS_CHECK(away.atom_at_zero() == 0.0,
           "away-period distribution must not have an atom at zero (switch "
           "overheads are strictly positive)");
  away_ = std::move(away);
  m_f_ = away_.order();
  w_ = m_q_ + m_f_;
  build();
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

void ClassProcess::build() {
  const Matrix& sa = arrival_.generator();
  const Vector& sa0 = arrival_.exit_rates();
  const Vector& alpha_a = arrival_.alpha();
  const Matrix& sb = service_.generator();
  const Vector& sb0 = service_.exit_rates();
  const Vector& beta = service_.alpha();
  const Matrix& sg = quantum_.generator();
  const Vector& sg0 = quantum_.exit_rates();
  const Vector& alpha_g = quantum_.alpha();
  const Matrix& sf = away_.generator();
  const Vector& sf0 = away_.exit_rates();
  const Vector& phi = away_.alpha();

  // Offsets of boundary-interior levels 0..c-1 in the flat out-rate
  // accumulator.
  std::vector<std::size_t> off(c_, 0);
  for (std::size_t i = 1; i < c_; ++i) off[i] = off[i - 1] + level_dim(i - 1);
  const std::size_t D = c_ == 0 ? 0 : off[c_ - 1] + level_dim(c_ - 1);
  const std::size_t d = level_dim(c_);

  // Assemble into the staging blocks (workspace-backed when available):
  // assign_zero keeps the allocations across fixed-point rebuilds.
  qbd::QbdBlocks& blk = stage();
  blk.diag.resize(c_);
  blk.up.resize(c_);
  blk.down.resize(c_);
  for (std::size_t i = 0; i < c_; ++i) {
    blk.diag[i].assign_zero(level_dim(i), level_dim(i));
    blk.up[i].assign_zero(level_dim(i), level_dim(i + 1));
    blk.down[i].assign_zero(level_dim(i + 1), level_dim(i));
  }
  blk.b11.assign_zero(d, d);
  blk.a0.assign_zero(d, d);
  blk.a1.assign_zero(d, d);
  blk.a2.assign_zero(d, d);

  // ---- boundary-interior levels -------------------------------------

  // Out-rate accumulators (diagonal fixed afterwards).
  Vector out_boundary(D, 0.0);
  Vector out_b(d, 0.0);

  // Route a transition from boundary-interior level i to level j, which
  // is always i-1, i or i+1 (level c's block when j == c).
  auto add_from_boundary = [&](std::size_t i, std::size_t idx_from,
                               std::size_t j, std::size_t idx_to,
                               double rate) {
    if (rate == 0.0) return;
    out_boundary[off[i] + idx_from] += rate;
    if (j == i) {
      blk.diag[i](idx_from, idx_to) += rate;
    } else if (j == i + 1) {
      blk.up[i](idx_from, idx_to) += rate;
    } else {
      GS_ASSERT(j + 1 == i);
      blk.down[j](idx_from, idx_to) += rate;
    }
  };

  // Level 0: states (j_a, away phase).
  for (std::size_t ja = 0; ja < m_a_; ++ja) {
    for (std::size_t jf = 0; jf < m_f_; ++jf) {
      const std::size_t from = index_level0(ja, jf);
      // Arrival-phase internals.
      for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
        if (ja2 != ja)
          add_from_boundary(0, from, 0, index_level0(ja2, jf), sa(ja, ja2));
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
          add_from_boundary(0, from, 1, idx_to, rate);
        }
      }
      // Away-period internals.
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        if (jf2 != jf)
          add_from_boundary(0, from, 0, index_level0(ja, jf2), sf(jf, jf2));
      }
      // Away completion with an empty queue: class p's slice has zero
      // length; the away period restarts (self-loops cancel on the
      // diagonal automatically).
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        add_from_boundary(0, from, 0, index_level0(ja, jf2),
                          sf0[jf] * phi[jf2]);
      }
    }
  }

  // Generic per-state transition enumeration for levels >= 1. `emit`
  // receives (target_level, target_idx, rate) with target_idx computed in
  // the target level's own layout.
  auto enumerate_level = [&](std::size_t i, std::size_t ja,
                             const Config& cfg, std::size_t k, auto&& emit) {
    const std::size_t cfg_idx = cfgs_.index_of(cfg);
    // Arrival-phase internals.
    for (std::size_t ja2 = 0; ja2 < m_a_; ++ja2) {
      if (ja2 != ja) emit(i, index(i, ja2, cfg_idx, k), sa(ja, ja2));
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
               base * beta[n]);
        }
      } else {
        emit(i + 1, index(i + 1, ja2, cfg_idx, k), base);
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
          emit(i, index(i, ja, cfgs_.index_of(moved), k), rate);
        }
        // Completion.
        const double crate = jobs * sb0[n];
        if (crate == 0.0) continue;
        if (i == 1) {
          // Queue empties: immediate switch into the away period.
          for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2)
            emit(0, index_level0(ja, jf2), crate * phi[jf2]);
        } else if (i <= c_) {
          // A partition goes idle; no queued job to take it.
          const Config down = cfgs_.with_removed(cfg, n);
          emit(i - 1, index(i - 1, ja, cfgs_.index_of(down), k), crate);
        } else {
          // Head-of-queue job takes the freed partition.
          for (std::size_t n2 = 0; n2 < m_b_; ++n2) {
            if (beta[n2] == 0.0) continue;
            const Config refilled =
                cfgs_.with_added(cfgs_.with_removed(cfg, n), n2);
            emit(i - 1, index(i - 1, ja, cfgs_.index_of(refilled), k),
                 crate * beta[n2]);
          }
        }
      }
      // Quantum internals.
      for (std::size_t k2 = 0; k2 < m_q_; ++k2) {
        if (k2 != k) emit(i, index(i, ja, cfg_idx, k2), sg(k, k2));
      }
      // Quantum expiry -> away period begins.
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        emit(i, index(i, ja, cfg_idx, m_q_ + jf2), sg0[k] * phi[jf2]);
      }
    } else {
      // Away period: only the cycle's away phase moves (and arrivals).
      const std::size_t jf = k - m_q_;
      for (std::size_t jf2 = 0; jf2 < m_f_; ++jf2) {
        if (jf2 != jf)
          emit(i, index(i, ja, cfg_idx, m_q_ + jf2), sf(jf, jf2));
      }
      // Away completion with work present: the next slice begins.
      for (std::size_t kq = 0; kq < m_q_; ++kq) {
        emit(i, index(i, ja, cfg_idx, kq), sf0[jf] * alpha_g[kq]);
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
                          [&](std::size_t lvl, std::size_t idx, double rate) {
                            add_from_boundary(i, from, lvl, idx, rate);
                          });
        }
      }
    }
  }

  // Level c (the last boundary level) and the repeating template. A single
  // enumeration of level-c states yields B11, the last down block L_{c-1}
  // and A0 directly; the repeating A1 equals B11 (identical within-level
  // dynamics) and A2 is the completion-with-refill variant of the down
  // transitions.
  for (std::size_t ja = 0; ja < m_a_; ++ja) {
    for (const Config& cfg : cfgs_.configs(c_)) {
      for (std::size_t k = 0; k < w_; ++k) {
        const std::size_t from = index(c_, ja, cfgs_.index_of(cfg), k);
        enumerate_level(
            c_, ja, cfg, k,
            [&](std::size_t lvl, std::size_t idx, double rate) {
              if (rate == 0.0) return;
              out_b[from] += rate;
              if (lvl == c_) {
                blk.b11(from, idx) += rate;
              } else if (lvl == c_ + 1) {
                blk.a0(from, idx) += rate;
              } else {
                GS_ASSERT(lvl + 1 == c_);
                blk.down[c_ - 1](from, idx) += rate;
              }
            });
      }
    }
  }

  // Repeating template: same within-level dynamics (A1 = B11 before the
  // diagonal is set), down transitions with refill into A2.
  blk.a1 = blk.b11;
  for (std::size_t ja = 0; ja < m_a_; ++ja) {
    for (const Config& cfg : cfgs_.configs(c_)) {
      for (std::size_t k = 0; k < m_q_; ++k) {  // completions only when serving
        const std::size_t from = index(c_, ja, cfgs_.index_of(cfg), k);
        for (std::size_t n = 0; n < m_b_; ++n) {
          if (cfg[n] == 0) continue;
          const double crate = static_cast<double>(cfg[n]) * sb0[n];
          if (crate == 0.0) continue;
          for (std::size_t n2 = 0; n2 < m_b_; ++n2) {
            if (beta[n2] == 0.0) continue;
            const Config refilled =
                cfgs_.with_added(cfgs_.with_removed(cfg, n), n2);
            blk.a2(from, index(c_, ja, cfgs_.index_of(refilled), k)) +=
                crate * beta[n2];
          }
        }
      }
    }
  }

  // Diagonals: subtract total out-rates. The repeating levels have the
  // same total out-rate as level c (completion totals are independent of
  // whether the freed partition is refilled).
  for (std::size_t i = 0; i < c_; ++i)
    for (std::size_t s = 0; s < level_dim(i); ++s)
      blk.diag[i](s, s) -= out_boundary[off[i] + s];
  for (std::size_t s = 0; s < d; ++s) {
    blk.b11(s, s) -= out_b[s];
    blk.a1(s, s) -= out_b[s];
  }

  // Same shapes as the live process (the common fixed-point case: only
  // the away rates moved): revalue in place. Otherwise build afresh. The
  // shapes are fully determined by (D, d) here — c_, m_a_ and the config
  // space are fixed, so matching dimensions imply matching level dims.
  if (process_ && process_->repeating_size() == d &&
      process_->boundary_size() == D) {
    process_->revalue(blk);
  } else {
    process_.emplace(blk);
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
    const qbd::QbdSolution& sol, const TruncationOptions& trunc) const {
  // Truncation depth: deep enough that the remaining geometric tail is
  // below tail_eps. The lazy scan consumes the identical incremental
  // dot/multiply chain as the eager tail_mass_sequence did, but stops
  // paying the O(d^2) advance at l_max instead of always walking out to
  // max_levels — the old scan's dominant cost at moderate loads.
  qbd::QbdSolution::TailScan scan = sol.tail_scan();
  scan.next();  // entry 0 (tail at the last boundary level): never tested
  TruncScan out;
  out.l_max = c_ + 1;
  out.cap_tail = scan.next();
  while (out.l_max < trunc.max_levels && out.cap_tail > trunc.tail_eps) {
    ++out.l_max;
    out.cap_tail = scan.next();
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

double ClassProcess::slice_start_vector(const qbd::QbdSolution& sol,
                                        std::size_t l_max, Vector& xi) const {
  const Vector& alpha_g = quantum_.alpha();
  const Vector& sf0 = away_.exit_rates();

  // Initial vector xi: the Palm distribution of slice beginnings — flow
  // through the away-exit transitions, split by the quantum's initial
  // vector; the level-0 flow is the atom (zero-length slice).
  std::size_t total_dim = 0;
  for (std::size_t i = 1; i <= l_max; ++i) total_dim += serving_dim(i);
  xi.assign(total_dim, 0.0);
  double atom_flow = 0.0;
  {
    const Vector& pi0 = sol.boundary_level(0);
    for (std::size_t ja = 0; ja < m_a_; ++ja)
      for (std::size_t jf = 0; jf < m_f_; ++jf)
        atom_flow += pi0[index_level0(ja, jf)] * sf0[jf];
  }
  // Walk the levels with one carried pi_b R^k vector: level(i) recomputes
  // the whole power chain from pi_b each call, and advancing the carried
  // vector one multiply per level consumes the identical chain, so the
  // bits match while the cost drops from O(l_max^2 d^2) to O(l_max d^2).
  const std::size_t b = sol.boundary_levels() - 1;
  Vector carried;
  std::size_t block_off = 0;
  for (std::size_t i = 1; i <= l_max; ++i) {
    const Vector* pi;
    if (i <= b) {
      pi = &sol.boundary_level(i);
    } else {
      carried = i == b + 1 ? sol.boundary_level(b) * sol.r()
                           : carried * sol.r();
      pi = &carried;
    }
    const std::size_t s = std::min(i, c_);
    for (std::size_t ja = 0; ja < m_a_; ++ja) {
      for (std::size_t cfg = 0; cfg < cfgs_.count(s); ++cfg) {
        double flow = 0.0;
        for (std::size_t jf = 0; jf < m_f_; ++jf)
          flow += (*pi)[index(i, ja, cfg, m_q_ + jf)] * sf0[jf];
        if (flow == 0.0) continue;
        for (std::size_t kq = 0; kq < m_q_; ++kq)
          xi[block_off + serving_index(i, ja, cfg, kq)] += flow * alpha_g[kq];
      }
    }
    block_off += serving_dim(i);
  }
  return atom_flow;
}

EffectiveQuantum ClassProcess::effective_quantum(
    const qbd::QbdSolution& sol, const TruncationOptions& trunc,
    bool want_exact) {
  obs::count("gang.effq.calls");
  const TruncScan scan = truncation_scan(sol, trunc);
  const std::size_t l_max = scan.l_max;
  if (scan.cap_tail > trunc.saturated_tail) {
    log::debug("effective quantum saturated (tail mass ", scan.cap_tail,
               " at the level cap); using the full quantum");
    return saturated_quantum(sol, l_max, want_exact);
  }

  Vector xi;
  const double atom_flow = slice_start_vector(sol, l_max, xi);
  const std::size_t total_dim = xi.size();

  double total_flow = atom_flow;
  for (double v : xi) total_flow += v;
  GS_CHECK(total_flow > 0.0,
           "no slice-start flow observed; the away period never completes");
  for (double& v : xi) v /= total_flow;

  EffectiveQuantum out;
  out.atom = atom_flow / total_flow;
  out.truncation_levels = l_max;

  // Eliminate -T's uncensored levels up to the cut (only the levels no
  // earlier call reached), then factor the censored last level alone.
  Matrix lower, diag, upper;
  const std::size_t factored = serving_factor_.levels();
  while (serving_factor_.levels() < l_max) {
    serving_row(serving_factor_.levels() + 1, /*censored=*/false, lower, diag,
                upper);
    lower *= -1.0;
    diag *= -1.0;
    upper *= -1.0;
    serving_factor_.push(lower, diag, upper);
  }
  obs::count("gang.effq.levels_factored", serving_factor_.levels() - factored);
  serving_row(l_max, /*censored=*/true, lower, diag, upper);
  diag *= -1.0;
  const linalg::BlockTridiagFactor::Truncated neg_t =
      serving_factor_.truncate(l_max, diag);

  // Moments via two solves with -T: E[T~^k] = k! xi (-T)^{-k} e.
  const Vector v1 = neg_t.solve(linalg::ones(total_dim));
  out.m1 = linalg::dot(xi, v1);
  const Vector v2 = neg_t.solve(v1);
  out.m2 = 2.0 * linalg::dot(xi, v2);

  if (want_exact) {
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
