#include "common/mutex.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace spangle {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kLeaf:
      return "kLeaf";
    case LockRank::kResultCache:
      return "kResultCache";
    case LockRank::kMetrics:
      return "kMetrics";
    case LockRank::kNetClient:
      return "kNetClient";
    case LockRank::kConfig:
      return "kConfig";
    case LockRank::kProfileSamples:
      return "kProfileSamples";
    case LockRank::kBlockManager:
      return "kBlockManager";
    case LockRank::kExecutorPool:
      return "kExecutorPool";
    case LockRank::kNetFleet:
      return "kNetFleet";
    case LockRank::kShuffleNode:
      return "kShuffleNode";
    case LockRank::kNetServer:
      return "kNetServer";
    case LockRank::kScheduler:
      return "kScheduler";
    case LockRank::kSessionQueue:
      return "kSessionQueue";
    case LockRank::kJobServer:
      return "kJobServer";
  }
  return "?";
}

#if SPANGLE_LOCK_RANK_CHECKS

namespace lock_rank_internal {

namespace {

struct Held {
  const void* mu;
  LockRank rank;
  const char* name;
  const char* file;
  int line;
};

// The calling thread's held-lock stack, outermost first. Acquisition
// order is push order, so scanning it reproduces the exact nesting that
// led to a violation.
thread_local std::vector<Held> tl_held;

void AppendSite(std::ostream& os, const Held& h) {
  os << "\"" << h.name << "\" (rank " << LockRankName(h.rank) << "="
     << static_cast<int>(h.rank) << ", acquired at " << h.file << ":" << h.line
     << ")";
}

}  // namespace

void OnAcquire(const void* mu, LockRank rank, const char* name,
               const char* file, int line) {
  for (const Held& h : tl_held) {
    if (h.mu == mu) {
      SPANGLE_LOG(Fatal)
          << "lock-rank violation: recursive acquisition of mutex \"" << name
          << "\" at " << file << ":" << line << "; already held since "
          << h.file << ":" << h.line;
    }
    if (static_cast<int>(rank) >= static_cast<int>(h.rank)) {
      // Out-of-hierarchy: the new lock's rank must be strictly below
      // every held rank. Report the offending pair, then the full stack.
      std::ostringstream os;
      os << "lock-rank violation: acquiring mutex \"" << name << "\" (rank "
         << LockRankName(rank) << "=" << static_cast<int>(rank) << ") at "
         << file << ":" << line << " while holding ";
      AppendSite(os, h);
      os << " — a lock's rank must be strictly lower than every held "
            "lock's rank (see the hierarchy in src/common/mutex.h / "
            "DESIGN.md §10). Held locks, outermost first:";
      for (const Held& held : tl_held) {
        os << "\n  ";
        AppendSite(os, held);
      }
      SPANGLE_LOG(Fatal) << os.str();
    }
  }
  tl_held.push_back(Held{mu, rank, name, file, line});
}

void OnRelease(const void* mu, const char* name) {
  // Releases are usually LIFO (RAII), but out-of-order unlock is legal
  // for std::mutex, so search from the innermost end.
  for (auto it = tl_held.rbegin(); it != tl_held.rend(); ++it) {
    if (it->mu == mu) {
      tl_held.erase(std::next(it).base());
      return;
    }
  }
  SPANGLE_LOG(Fatal) << "lock-rank violation: releasing mutex \"" << name
                      << "\" that this thread does not hold";
}

bool IsHeld(const void* mu) {
  for (const Held& h : tl_held) {
    if (h.mu == mu) return true;
  }
  return false;
}

int HeldCount() { return static_cast<int>(tl_held.size()); }

}  // namespace lock_rank_internal

void Mutex::AssertHeld() const {
  if (!lock_rank_internal::IsHeld(this)) {
    SPANGLE_LOG(Fatal) << "lock-rank violation: AssertHeld on mutex \""
                        << name_ << "\" not held by this thread";
  }
}

int HeldLockCountForTest() { return lock_rank_internal::HeldCount(); }

#else  // !SPANGLE_LOCK_RANK_CHECKS

void Mutex::AssertHeld() const {}

int HeldLockCountForTest() { return 0; }

#endif  // SPANGLE_LOCK_RANK_CHECKS

}  // namespace spangle
