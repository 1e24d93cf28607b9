// Shared constructors of small reference QBDs used across the qbd tests.
#pragma once

#include "qbd/qbd.hpp"

namespace gs::qbd::testing {

/// M/M/1 queue as a QBD with an empty boundary interior (b = 0):
/// level 0 is the "last boundary level" and every level has one state.
inline QbdProcess mm1(double lambda, double mu) {
  QbdBlocks blk;
  blk.b11 = Matrix{{-lambda}};
  blk.a0 = Matrix{{lambda}};
  blk.a1 = Matrix{{-(lambda + mu)}};
  blk.a2 = Matrix{{mu}};
  return QbdProcess(std::move(blk));
}

/// M/M/c queue: boundary-interior levels 0..c-1 (one state each, level i
/// serving at rate i*mu), repeating from level c with service rate c*mu.
inline QbdProcess mmc(double lambda, double mu, std::size_t c) {
  QbdBlocks blk;
  for (std::size_t i = 0; i < c; ++i) {
    const double service = static_cast<double>(i) * mu;
    blk.diag.push_back(Matrix{{-(lambda + service)}});
    blk.up.push_back(Matrix{{lambda}});
    blk.down.push_back(Matrix{{static_cast<double>(i + 1) * mu}});
  }
  blk.b11 = Matrix{{-(lambda + static_cast<double>(c) * mu)}};

  blk.a0 = Matrix{{lambda}};
  blk.a1 = Matrix{{-(lambda + static_cast<double>(c) * mu)}};
  blk.a2 = Matrix{{static_cast<double>(c) * mu}};
  return QbdProcess(std::move(blk));
}

/// M/E2/1 queue (Poisson arrivals, 2-stage Erlang service with mean
/// 1/mu): levels >= 1 carry the service stage as the phase.
inline QbdProcess me21(double lambda, double mu) {
  const double nu = 2.0 * mu;  // per-stage rate
  QbdBlocks blk;
  blk.diag = {Matrix{{-lambda}}};
  Matrix up(1, 2);
  up(0, 0) = lambda;  // arrival starts service in stage 1
  blk.up = {up};
  Matrix down(2, 1);
  down(1, 0) = nu;  // stage-2 completion empties the system
  blk.down = {down};
  blk.b11 = Matrix{{-(lambda + nu), nu}, {0.0, -(lambda + nu)}};
  blk.a0 = lambda * Matrix::identity(2);
  blk.a1 = Matrix{{-(lambda + nu), nu}, {0.0, -(lambda + nu)}};
  blk.a2 = Matrix(2, 2);
  blk.a2(1, 0) = nu;  // completion; next job begins in stage 1
  return QbdProcess(std::move(blk));
}

}  // namespace gs::qbd::testing
