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

#include <cstdint>
#include <map>
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
  /// `ws`, when given, must outlive this object: the revalue buffers live
  /// in ws->rates, so update_away stops allocating.
  ClassProcess(const SystemParams& sys, std::size_t p, PhaseType away,
               qbd::Workspace* ws = nullptr);

  /// Re-derive the chain for a new away-period distribution. The chain is
  /// compiled into a qbd::RateProgram of its transitions, whose only
  /// non-constant rate sources are F_p's (S_F entries, exit rates s_F0,
  /// initial vector phi). A program serves one away order m_f and a
  /// support — the sources that may be nonzero — and records only the
  /// transitions whose rate can be nonzero; the program of every order
  /// seen is kept. An order's first away period is assembled directly
  /// (build()); from its second on, the order's program is compiled for
  /// every source seen nonzero at that order, and recompiled when a new
  /// one appears. While the program covers the new values — the common
  /// fixed-point case — only the rates F_p reaches are replayed into the
  /// live QbdProcess (materialized from that program first if the order
  /// changed). Bit for bit the blocks build() assembles.
  void update_away(PhaseType away);

  /// The reference assembly: enumerate every state's transitions for the
  /// current away period and add each rate straight into fresh blocks,
  /// in the order the compiled program replays them. The live process()
  /// holds these bits; the tests compare the two, and update_away uses it
  /// for an order's first away period.
  qbd::QbdBlocks build() const;

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
  /// only grown when a call truncates deeper than any before; its rows
  /// above level c_p, all alike, are assembled once. (-T_n)^{-1} e and
  /// (-T_n)^{-2} e are kept for the last depth n, so a call that cuts at
  /// the previous call's depth pays for the tail scan and two dot products
  /// with its slice-start vector (counted as gang.effq.depth_reused). Not
  /// safe to call concurrently on one object.
  EffectiveQuantum effective_quantum(const qbd::QbdSolution& sol,
                                     const TruncationOptions& trunc = {},
                                     bool want_exact = false);

 private:
  // Enumerate the chain's transitions into `sink` (class_process.cpp):
  // every rate as the sink represents it, then the diagonal fix-ups.
  template <class Sink>
  void enumerate(Sink& sink) const;
  // The transition program of the current away order for `support`
  // (one bit per rate source), not yet sealed.
  qbd::RateProgram compile(const std::vector<std::uint64_t>& support) const;
  // Write the current away period's rate sources into `values`.
  void fill_values(std::vector<double>& values) const;
  // Make the live process hold the current away period's chain: build
  // it, or replay, materialize or compile the order's program (see
  // update_away).
  void install();
  /// Where update_away evaluates the program: the caller's workspace
  /// when one was given, own buffers otherwise.
  qbd::RateBuffers& buffers() { return ws_ ? ws_->rates : own_buffers_; }

  // Stages of the effective-quantum extraction.
  struct TruncScan {
    std::size_t l_max = 0;    // truncation depth the scan settled on
    double cap_tail = 0.0;    // tail mass at that depth, or a floor on it
    double atom_flow = 0.0;   // slice-start flow at level 0 (the atom)
  };
  // One walk over the levels: the incremental tail-mass scan for the
  // truncation depth (the lazy twin of the old eager tail_mass_sequence
  // scan, same consumed bits) also fills the unnormalized slice-start
  // vector xi (levels 1..l_max) from each level vector it weighs. A walk
  // the tail's decay floor proves saturated stops where the proof holds,
  // at l_max = max_levels with xi unfinished (the saturated path reads
  // none of it).
  TruncScan truncation_scan(const qbd::QbdSolution& sol,
                            const TruncationOptions& trunc,
                            linalg::Vector& xi) const;
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
  // Append level `level`'s block of the unnormalized slice-start vector
  // to xi: the away-exit flow out of the level vector `pi`, split by the
  // quantum's initial vector.
  void add_slice_starts(const linalg::Vector& pi, std::size_t level,
                        linalg::Vector& xi) const;
  // -T's block rows above level c_ (see repeating_rows_), assembled on
  // first use.
  struct RepeatingRows {
    linalg::Matrix lower, diag, upper, censored_diag;
  };
  const RepeatingRows& repeating_rows();
  // Grow serving_factor_ to `levels` rows of -T.
  void grow_serving_factor(std::size_t levels);

  std::size_t p_;
  std::size_t c_;        // partitions (P / g)
  PhaseType arrival_;
  PhaseType service_;
  PhaseType quantum_;
  PhaseType away_;
  std::size_t m_a_, m_b_, m_q_, m_f_, w_;  // orders; w_ = m_q_ + m_f_
  ServiceConfigSpace cfgs_;
  qbd::Workspace* ws_ = nullptr;
  qbd::RateBuffers own_buffers_;
  // Per away order seen: the sources seen nonzero at it, its program
  // once compiled (for that support), and a number telling programs
  // apart; live_id_ is the number of the program process_ was built from
  // (0: assembled by build()).
  struct Compiled {
    std::vector<std::uint64_t> support;
    std::optional<qbd::RateProgram> program;
    std::uint64_t id = 0;
  };
  std::map<std::size_t, Compiled> programs_;
  std::uint64_t compiled_ = 0, live_id_ = 0;
  std::size_t live_order_ = 0;  // m_f of process_
  std::vector<std::uint64_t> support_;  // scratch of install()
  std::optional<qbd::QbdProcess> process_;
  // Theorem 4.3's serving chain T never sees F_p, so all below but the
  // xi_ scratch is kept across update_away.
  // Block elimination of -T over the uncensored serving levels 1..k,
  // grown on demand by effective_quantum.
  linalg::BlockTridiagFactor serving_factor_;
  // -T's block row at every level above c_ (they are all the same
  // matrices) and the censored last row's diagonal there, assembled once.
  std::optional<RepeatingRows> repeating_rows_;
  // (-T_n)^{-1} e and (-T_n)^{-2} e for the last truncation depth n
  // solved (0: none yet). Only that one depth is kept, so the memory
  // stays that of one solve however the depth moves.
  std::size_t kept_depth_ = 0;
  linalg::Vector kept_v1_, kept_v2_;
  linalg::Vector xi_;  // scratch: the slice-start vector of a call
};

}  // namespace gs::gang
