#include "qbd/arena.hpp"

#include <list>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gs::qbd {

struct WorkspaceArena::Entry {
  std::uint64_t key = 0;
  bool busy = false;
  std::uint64_t stamp = 0;  ///< last-borrowed tick, for LRU recycling
  std::vector<Workspace> slots;
};

namespace {

struct ThreadArena {
  // unique_ptr keeps Entry addresses stable across vector growth — a
  // Lease holds a raw Entry*.
  std::vector<std::unique_ptr<WorkspaceArena::Entry>> entries;
  std::uint64_t clock = 0;
};

ThreadArena& arena() {
  thread_local ThreadArena a;
  return a;
}

}  // namespace

WorkspaceArena::Lease& WorkspaceArena::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    if (entry_ != nullptr) entry_->busy = false;
    entry_ = other.entry_;
    other.entry_ = nullptr;
  }
  return *this;
}

WorkspaceArena::Lease::~Lease() {
  if (entry_ != nullptr) entry_->busy = false;
}

Workspace& WorkspaceArena::Lease::operator[](std::size_t i) {
  GS_ASSERT(entry_ != nullptr && i < entry_->slots.size());
  return entry_->slots[i];
}

std::size_t WorkspaceArena::Lease::size() const {
  return entry_ == nullptr ? 0 : entry_->slots.size();
}

WorkspaceArena::Lease WorkspaceArena::borrow(std::uint64_t key,
                                             std::size_t count) {
  // Hit on this thread's free entry for the key, else recycle the LRU
  // free entry (evicting the warm scratch it cached for its old key) or
  // grow a fresh one.
  ThreadArena& a = arena();
  Entry* match = nullptr;
  Entry* lru_free = nullptr;
  for (auto& e : a.entries) {
    if (e->busy) continue;
    if (e->key == key) {
      match = e.get();
      break;
    }
    if (lru_free == nullptr || e->stamp < lru_free->stamp) lru_free = e.get();
  }
  obs::count("qbd.arena.borrow");
  Entry* chosen = match;
  if (chosen != nullptr) {
    obs::count("qbd.arena.hit");
  } else {
    if (a.entries.size() >= kMaxEntries && lru_free != nullptr) {
      // Recycle the stalest free entry: its scratch shapes belong to a
      // different structure, but the solvers reshape on use, so only the
      // warm-capacity benefit is lost, never correctness. The old key's
      // cached scratch is gone, though — that is an eviction, and the
      // counter is how workspace pressure shows up in `stats`.
      obs::count("qbd.arena.recycle");
      obs::count("qbd.arena.evict");
      chosen = lru_free;
      chosen->key = key;
    } else {
      obs::count("qbd.arena.fresh");
      a.entries.push_back(std::make_unique<Entry>());
      chosen = a.entries.back().get();
      chosen->key = key;
    }
  }
  chosen->busy = true;
  chosen->stamp = ++a.clock;
  if (chosen->slots.size() < count) chosen->slots.resize(count);
  // A lease hands out scratch, never the R warm start a previous solve
  // left behind: that would make a solve's bits depend on the one before.
  for (Workspace& w : chosen->slots) w.warm = false;
  return Lease(chosen);
}

std::size_t WorkspaceArena::thread_entries() { return arena().entries.size(); }

void WorkspaceArena::clear_thread() {
  auto& entries = arena().entries;
  for (auto it = entries.begin(); it != entries.end();) {
    if ((*it)->busy) {
      ++it;
    } else {
      obs::count("qbd.arena.evict");
      it = entries.erase(it);
    }
  }
}

}  // namespace gs::qbd
