// The per-class Markov process {X_p(t)} of Section 4.1, generalized from
// Figure 1's example to arbitrary phase-type parameters.
//
// State of class p: (i, j^A, (j_1..j_{m_B}), k) where
//   i    — number of class-p jobs in the system (the QBD level),
//   j^A  — phase of the interarrival process,
//   j_n  — number of in-service class-p jobs whose service is in phase n
//          (sum = min(i, c_p), c_p = P/g(p)),
//   k    — phase of the timeplexing cycle as seen by class p:
//          k in [0, M_p)        class p holds the processors (quantum G_p),
//          k in [M_p, M_p+N_p)  the away period F_p is running.
//
// Dynamics encoded here (Section 3.1):
//  * arrivals renew the arrival PH; a job arriving while a partition is
//    free (i < c_p) is allocated immediately and its service phase is
//    initialized from beta (it does not advance until class p is served);
//  * service and quantum phases advance only while k < M_p;
//  * a completion that empties the queue (i = 1 -> 0) context-switches
//    immediately: k jumps to the away period's initial distribution;
//  * an away-period completion finds either work (k jumps to the quantum's
//    initial distribution) or an empty queue (class p's slice has zero
//    length; the away period restarts) — hence level 0 carries away phases
//    only.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gang/params.hpp"
#include "gang/service_config.hpp"
#include "linalg/block_tridiag.hpp"
#include "qbd/solver.hpp"

namespace gs::gang {

/// Options controlling the truncation used when extracting the effective
/// quantum from a solved class chain. Theorem 4.3 defines the effective
/// quantum over the chain's infinite level ordering; any numerical
/// implementation must censor it at a finite depth, and the
/// matrix-geometric tail (pi_{b+n} = pi_b R^n) makes the censoring error
/// both computable and controllable.
struct TruncationOptions {
  /// Stop deepening once the remaining tail mass P(level >= L) drops
  /// below this: the censored states then carry negligible slice-start
  /// flow and the moment bias is of the same order.
  double tail_eps = 1e-12;
  /// Hard cap on truncation depth regardless of tail mass.
  std::size_t max_levels = 4000;
  /// When the tail mass at the cap still exceeds this, the class is
  /// treated as saturated and the effective quantum degenerates to the
  /// full quantum — Theorem 4.1's regime: a class at its stability
  /// boundary essentially never drains its queue within a slice, so
  /// min(quantum, drain time) is the quantum itself, and moments from a
  /// hard-censored chain would be biased short.
  double saturated_tail = 1e-3;
};

/// Class p's effective quantum (Theorem 4.3): the law of min(full
/// quantum, time for the queue to drain), with an atom at zero for
/// slices that begin with an empty queue (the paper's state (0,0)). In
/// the saturated regime (see TruncationOptions::saturated_tail) the
/// distribution collapses to atom + full quantum per Theorem 4.1.
struct EffectiveQuantum {
  double atom = 0.0;     ///< P(zero-length slice)
  double m1 = 0.0;       ///< E[T~] including the atom
  double m2 = 0.0;       ///< E[T~^2]
  /// Truncation depth the extraction actually used (l_max).
  std::size_t truncation_levels = 0;
  /// Truncated exact PH representation (defective initial vector); only
  /// materialized when requested — its order grows with the truncation
  /// depth, so it is meant for validation and small models.
  std::optional<PhaseType> exact;

  /// Small moment-matched representation with the same atom and first two
  /// moments (the default currency of the fixed-point iteration).
  PhaseType fitted(int max_order = 8) const;
};

// The paper's per-class model (Section 4 / Figure 1 generalized): owns
// the class-p QBD chain, its state indexing, and every extraction the
// fixed point needs — serving fraction, arrival view, and the Theorem
// 4.3 effective-quantum law.
class ClassProcess {
 public:
  /// Build the QBD for class p given the away-period distribution F_p.
  /// `ws`, when given, must outlive this object: the block assembly is
  /// staged in ws->blocks, so rebuilds (update_away) stop allocating.
  ClassProcess(const SystemParams& sys, std::size_t p, PhaseType away,
               qbd::Workspace* ws = nullptr);

  /// Re-derive the chain for a new away-period distribution. The block
  /// shapes are invariant across fixed-point iterations as long as the
  /// away order is unchanged (only the rates move), in which case the
  /// live QbdProcess is revalued in place; a changed order (the fitted
  /// effective quantum may shrink) falls back to a full rebuild.
  void update_away(PhaseType away);

  const qbd::QbdProcess& process() const { return *process_; }  ///< the QBD chain
  std::size_t class_index() const { return p_; }  ///< class index p
  std::size_t partitions() const { return c_; }   ///< partition count c_p
  const PhaseType& away() const { return away_; } ///< current away PH

  /// Within-level state counts.
  std::size_t level_dim(std::size_t level) const;
  std::size_t arrival_phases() const { return m_a_; }  ///< arrival PH order
  std::size_t serving_phases() const { return m_q_; }  ///< cycle PH order
  std::size_t away_phases() const { return m_f_; }     ///< away PH order
  /// Number of service-phase configurations at a given level.
  std::size_t config_count(std::size_t level) const {
    return cfgs_.count(std::min(level == 0 ? 0 : level, c_));
  }
  /// The configuration objects at a level (for labeling/diagnostics).
  const std::vector<Config>& configs(std::size_t level) const {
    return cfgs_.configs(std::min(level == 0 ? 0 : level, c_));
  }

  /// Flat within-level index of a state. Level 0 takes only (j_a,
  /// away_phase); levels >= 1 take (j_a, config index, cycle phase k).
  std::size_t index_level0(std::size_t j_a, std::size_t away_phase) const;
  /// Flat within-level index for levels >= 1 (see index_level0 above).
  std::size_t index(std::size_t level, std::size_t j_a, std::size_t cfg_idx,
                    std::size_t k) const;

  /// Fraction of time class p holds the processors, computed from a
  /// solution of this chain (mass of serving states).
  double serving_time_fraction(const qbd::QbdSolution& sol) const;

  /// What a class-p arrival finds (Palm view, weighted by the arrival
  /// process's exit flow — this is PASTA for Poisson arrivals and the
  /// correct arrival-point law for general PH arrivals):
  ///  * a free partition while class p runs: service starts immediately;
  ///  * a free partition during the away period: it waits for the next
  ///    slice (mean residual away time reported);
  ///  * all partitions taken: it queues behind other jobs.
  /// The decomposition is the interactive-latency lens of the paper's
  /// motivation: gang scheduling's promise is a large prob_immediate +
  /// short slice waits for interactive classes.
  struct ArrivalView {
    double prob_immediate = 0.0;
    double prob_wait_for_slice = 0.0;
    double prob_queued = 0.0;
    /// E[residual away period | arrival waits for the next slice].
    double mean_slice_wait = 0.0;
  };
  /// Compute the arrival-point decomposition from a solved chain.
  ArrivalView arrival_view(const qbd::QbdSolution& sol) const;

  /// Theorem 4.3: extract the effective-quantum law from the solved chain.
  /// The serving-state generator T depends on the arrival, service and
  /// quantum laws and c_p but never on the away period, so its block
  /// elimination is kept for the object's life (across update_away) and
  /// only grown when a call truncates deeper than any before. Not safe to
  /// call concurrently on one object.
  EffectiveQuantum effective_quantum(const qbd::QbdSolution& sol,
                                     const TruncationOptions& trunc = {},
                                     bool want_exact = false);

 private:
  void build();
  /// Where build() assembles the blocks: the caller's workspace when one
  /// was given, own storage otherwise.
  qbd::QbdBlocks& stage() { return ws_ ? ws_->blocks : own_stage_; }

  // Stages of the effective-quantum extraction.
  struct TruncScan {
    std::size_t l_max = 0;    // truncation depth the scan settled on
    double cap_tail = 0.0;    // tail mass at that depth
  };
  // Incremental tail-mass scan for the truncation depth (the lazy twin
  // of the old eager tail_mass_sequence scan, same consumed bits).
  TruncScan truncation_scan(const qbd::QbdSolution& sol,
                            const TruncationOptions& trunc) const;
  // Theorem 4.1's saturated regime: atom from the captured slice-start
  // flow, moments of the full quantum.
  EffectiveQuantum saturated_quantum(const qbd::QbdSolution& sol,
                                     std::size_t l_max,
                                     bool want_exact) const;
  // Serving-state block dimension / within-block index at a level >= 1.
  std::size_t serving_dim(std::size_t level) const;
  std::size_t serving_index(std::size_t level, std::size_t j_a,
                            std::size_t cfg_idx, std::size_t k) const;
  // Assemble block row `level` (>= 1) of the serving-state sub-generator
  // T: `lower` to level-1 (empty at level 1), `diag`, and `upper` to
  // level+1. A censored row is the truncation's last level: its arrivals
  // are dropped from the out-rate and it has no upper block.
  void serving_row(std::size_t level, bool censored, linalg::Matrix& lower,
                   linalg::Matrix& diag, linalg::Matrix& upper) const;
  // Fill the unnormalized slice-start vector xi (sized for l_max levels)
  // and return the level-0 atom flow.
  double slice_start_vector(const qbd::QbdSolution& sol, std::size_t l_max,
                            linalg::Vector& xi) const;

  std::size_t p_;
  std::size_t c_;        // partitions (P / g)
  PhaseType arrival_;
  PhaseType service_;
  PhaseType quantum_;
  PhaseType away_;
  std::size_t m_a_, m_b_, m_q_, m_f_, w_;  // orders; w_ = m_q_ + m_f_
  ServiceConfigSpace cfgs_;
  qbd::Workspace* ws_ = nullptr;
  qbd::QbdBlocks own_stage_;
  std::optional<qbd::QbdProcess> process_;
  // Block elimination of -T over the uncensored serving levels 1..k,
  // grown on demand by effective_quantum.
  linalg::BlockTridiagFactor serving_factor_;
};

}  // namespace gs::gang
