// Per-thread arenas of reusable qbd::Workspace scratch slabs.
//
// PR 2 made one fixed-point solve allocation-free after its first
// iteration by threading a Workspace through the QBD kernels. This arena
// extends that reuse across *solves*: each thread keeps a small set of
// workspace vectors keyed by a caller-supplied structure hash, so a pool
// worker that solves many same-shaped scenarios back to back — sweep
// points, warm-started daemon requests — stops paying the allocator after
// its first point. Ownership rules:
//
//  * The arena is thread-local. Borrowing mutates only the calling
//    thread's arena, so borrows never contend.
//  * A Lease pins its entry until destruction. The workspaces inside may
//    be *used* from other threads (GangSolver hands slot p to the pool
//    task solving class p) — that is safe because each slot is touched by
//    exactly one task and the arena itself is not mutated while leased.
//  * Re-borrowing a key that is currently leased on the same thread (a
//    nested solve of the same shape) yields a fresh entry, never the busy
//    one.
//  * Reuse is invisible in results: every solver shapes its workspace on
//    use and overwrites before reading (the PR 2 guarantee), so the bits
//    of a solve never depend on what a previous solve left behind. Tests
//    pin this by interleaving solves of different shapes.
//
// Entries are bounded per thread (kMaxEntries); when full, the
// least-recently-used free entry of a *different* key is recycled.
#pragma once

#include <cstddef>
#include <cstdint>

#include "qbd/rmatrix.hpp"

namespace gs::qbd {

class WorkspaceArena {
 public:
  struct Entry;  // opaque outside arena.cpp

  /// RAII handle on `count` workspaces borrowed from the calling thread's
  /// arena. Movable, not copyable; releases the entry on destruction
  /// (the release must happen on the borrowing thread).
  class Lease {
   public:
    Lease(Lease&& other) noexcept : entry_(other.entry_) {
      other.entry_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    Workspace& operator[](std::size_t i);
    std::size_t size() const;

   private:
    friend class WorkspaceArena;
    explicit Lease(Entry* entry) : entry_(entry) {}
    Entry* entry_;
  };

  /// Borrow `count` workspaces keyed by `key` (a structure hash of the
  /// shapes about to be solved). Returns the calling thread's existing
  /// free entry for the key when one exists (its workspaces still hold
  /// the grown scratch of the previous same-shaped solve), otherwise a
  /// recycled or fresh entry.
  static Lease borrow(std::uint64_t key, std::size_t count);

  /// Number of entries held by the calling thread's arena (for tests).
  static std::size_t thread_entries();

  /// Drop every free entry of the calling thread's arena (for tests).
  static void clear_thread();

  /// Max entries retained per thread before free ones get recycled.
  static constexpr std::size_t kMaxEntries = 16;
};

}  // namespace gs::qbd
