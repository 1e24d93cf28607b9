// WorkspaceArena contract tests: borrow/release and busy semantics,
// same-key reuse, the per-thread entry bound with LRU recycling, and the
// guarantee that matters to everyone upstream — reusing a workspace that
// previously served a different shape, or the same shape at other rates,
// changes no bits of a solve.
#include "qbd/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "qbd/rmatrix.hpp"

namespace {

using gs::linalg::Matrix;
using gs::qbd::Workspace;
using gs::qbd::WorkspaceArena;

// A small positive-recurrent QBD block triple (an M/M/1-like chain with
// d phases) whose R solve exercises the full workspace.
struct Blocks {
  Matrix a0, a1, a2;
};

Blocks make_blocks(std::size_t d, double lambda, double mu) {
  Blocks b;
  b.a0.assign_zero(d, d);
  b.a1.assign_zero(d, d);
  b.a2.assign_zero(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    b.a0(i, i) = lambda;
    b.a2(i, i) = mu;
    b.a1(i, i) = -(lambda + mu) - (i + 1 < d ? 1.0 : 0.0);
    if (i + 1 < d) b.a1(i, i + 1) = 1.0;  // phase drift keeps it irreducible
  }
  return b;
}

Matrix solve_with_lease(const Blocks& b, std::uint64_t key) {
  WorkspaceArena::Lease lease = WorkspaceArena::borrow(key, 1);
  return gs::qbd::solve_r(b.a0, b.a1, b.a2, {}, &lease[0]).r;
}

TEST(WorkspaceArena, SameKeyReusesEntryAcrossBorrows) {
  WorkspaceArena::clear_thread();
  const std::size_t before = WorkspaceArena::thread_entries();
  {
    WorkspaceArena::Lease lease = WorkspaceArena::borrow(0xabcdu, 3);
    EXPECT_EQ(lease.size(), 3u);
    lease[0].m.assign_zero(4, 4);  // grow some scratch
  }
  EXPECT_EQ(WorkspaceArena::thread_entries(), before + 1);
  {
    // Freed entry with the same key comes back (scratch still grown).
    WorkspaceArena::Lease lease = WorkspaceArena::borrow(0xabcdu, 3);
    EXPECT_EQ(lease[0].m.rows(), 4u);
  }
  EXPECT_EQ(WorkspaceArena::thread_entries(), before + 1);
}

TEST(WorkspaceArena, BusyKeyYieldsFreshEntry) {
  WorkspaceArena::clear_thread();
  WorkspaceArena::Lease outer = WorkspaceArena::borrow(7u, 1);
  outer[0].m.assign_zero(2, 2);
  {
    // A nested borrow of the same key must not hand out the busy entry.
    WorkspaceArena::Lease inner = WorkspaceArena::borrow(7u, 1);
    EXPECT_NE(&outer[0], &inner[0]);
    EXPECT_EQ(WorkspaceArena::thread_entries(), 2u);
  }
}

TEST(WorkspaceArena, LeaseGrowsEntryToRequestedCount) {
  WorkspaceArena::clear_thread();
  { WorkspaceArena::Lease l = WorkspaceArena::borrow(3u, 2); }
  WorkspaceArena::Lease l = WorkspaceArena::borrow(3u, 5);
  EXPECT_EQ(l.size(), 5u);
}

TEST(WorkspaceArena, MoveTransfersOwnership) {
  WorkspaceArena::clear_thread();
  WorkspaceArena::Lease a = WorkspaceArena::borrow(11u, 1);
  Workspace* slot = &a[0];
  WorkspaceArena::Lease b = std::move(a);
  EXPECT_EQ(&b[0], slot);
}

TEST(WorkspaceArena, EntryCountIsBoundedByRecycling) {
  WorkspaceArena::clear_thread();
  // Many distinct keys, borrowed one at a time: free entries get
  // recycled instead of accumulating without bound.
  for (std::uint64_t key = 0; key < 3 * WorkspaceArena::kMaxEntries; ++key) {
    WorkspaceArena::Lease lease = WorkspaceArena::borrow(key, 1);
  }
  EXPECT_LE(WorkspaceArena::thread_entries(), WorkspaceArena::kMaxEntries);
}

TEST(WorkspaceArena, ArenasAreThreadLocal) {
  WorkspaceArena::clear_thread();
  WorkspaceArena::Lease lease = WorkspaceArena::borrow(1u, 1);
  std::size_t other_thread_entries = 99;
  std::thread t([&] {
    other_thread_entries = WorkspaceArena::thread_entries();
    WorkspaceArena::Lease mine = WorkspaceArena::borrow(1u, 1);
  });
  t.join();
  EXPECT_EQ(other_thread_entries, 0u);  // the other thread starts empty
  EXPECT_EQ(WorkspaceArena::thread_entries(), 1u);
}

TEST(WorkspaceArena, RecyclingPublishesEvictCounter) {
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  WorkspaceArena::clear_thread();
  gs::obs::reset();
  // Filling the table past kMaxEntries recycles LRU free entries; every
  // recycle (and every clear_thread drop) counts one qbd.arena.evict.
  for (std::uint64_t key = 0; key < WorkspaceArena::kMaxEntries + 4; ++key) {
    WorkspaceArena::Lease lease = WorkspaceArena::borrow(1000u + key, 1);
  }
  const std::uint64_t evicted =
      gs::obs::snapshot().counter_value("qbd.arena.evict");
  EXPECT_EQ(evicted, 4u);
  WorkspaceArena::clear_thread();
  EXPECT_EQ(gs::obs::snapshot().counter_value("qbd.arena.evict"),
            evicted + WorkspaceArena::kMaxEntries);
  gs::obs::configure({});
}

TEST(WorkspaceArena, ReuseAcrossShapesChangesNoBits) {
  // The upstream guarantee: a workspace that served a different shape
  // (or key) in between produces bitwise-identical solver results.
  WorkspaceArena::clear_thread();
  const Blocks small = make_blocks(3, 0.4, 1.0);
  const Blocks big = make_blocks(8, 0.7, 1.2);

  const Matrix r_small_fresh = solve_with_lease(small, 100u);
  const Matrix r_big_fresh = solve_with_lease(big, 200u);

  // Interleave shapes onto the SAME key so each solve inherits scratch
  // shaped (and filled) by the other.
  const Matrix r_big_reused = solve_with_lease(big, 100u);
  const Matrix r_small_reused = solve_with_lease(small, 100u);

  EXPECT_EQ(gs::linalg::max_abs_diff(r_small_fresh, r_small_reused), 0.0);
  EXPECT_EQ(gs::linalg::max_abs_diff(r_big_fresh, r_big_reused), 0.0);
}

TEST(WorkspaceArena, WarmStartDoesNotCrossLeases) {
  // Within a lease a slot carries Newton's warm start from one R solve to
  // the next; borrow() clears it. So a solve that follows a same-shape,
  // different-rate solve on the same key has the bits of the same solve
  // on a fresh thread, whose arena never saw the other chain.
  WorkspaceArena::clear_thread();
  const Blocks a = make_blocks(6, 0.4, 1.0);
  const Blocks b = make_blocks(6, 0.7, 1.2);
  Matrix fresh;
  std::thread t([&] { fresh = solve_with_lease(a, 300u); });
  t.join();
  {
    WorkspaceArena::Lease lease = WorkspaceArena::borrow(300u, 1);
    gs::qbd::solve_r(b.a0, b.a1, b.a2, {}, &lease[0]);
    EXPECT_TRUE(lease[0].warm);
  }
  const Matrix after = solve_with_lease(a, 300u);
  EXPECT_EQ(gs::linalg::max_abs_diff(fresh, after), 0.0);
  WorkspaceArena::Lease lease = WorkspaceArena::borrow(300u, 1);
  EXPECT_FALSE(lease[0].warm);
}

}  // namespace
