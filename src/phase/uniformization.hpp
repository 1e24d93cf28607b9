// Uniformization (Section 2.4): evaluate the action of a matrix
// exponential row-vector product v exp(Mt) for a (sub-)generator M.
//
// Writing M = q (P - I) with q >= max_i |m_ii| makes P = M/q + I entrywise
// non-negative (stochastic when M is a generator, sub-stochastic when M is
// a PH sub-generator), and
//     v exp(Mt) = e^{-qt} sum_k (qt)^k / k!  v P^k.
// All terms are non-negative, so the sum is evaluated without cancellation;
// we truncate when the remaining Poisson tail is below `tail_eps`.
#pragma once

#include "linalg/matrix.hpp"

namespace gs::phase {

/// Largest q t that exp_action accepts. The power series walks every
/// Poisson term up to about q t + 10 sqrt(q t), one vector-matrix product
/// each, including the underflowed terms below the mode, so its cost
/// grows linearly in q t: an order-2 Erlang at q t = 2e8 took 8 s on a
/// 4-core x86-64 host. The cap keeps a call on a small generator to a few
/// seconds and leaves room for stiff inputs, such as a phase-type law
/// convolved with an exponential of rate 1e7 (q t up to 1.7e7 in the
/// phase tests).
constexpr double kExpActionMaxQt = 1e8;

/// v exp(Mt) for a generator or sub-generator M (off-diagonal >= 0, row
/// sums <= 0). Returns v unchanged when t == 0. Throws gs::InvalidArgument
/// when t is negative or not finite, or when q t exceeds kExpActionMaxQt.
linalg::Vector exp_action(const linalg::Vector& v, const linalg::Matrix& m,
                          double t, double tail_eps = 1e-14);

/// Dense exp(Mt) by applying exp_action to each unit row. Fine at the
/// state-space sizes this library handles.
linalg::Matrix exp_dense(const linalg::Matrix& m, double t,
                         double tail_eps = 1e-14);

}  // namespace gs::phase
