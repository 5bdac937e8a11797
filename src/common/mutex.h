#ifndef SPANGLE_COMMON_MUTEX_H_
#define SPANGLE_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/thread_annotations.h"

// Annotated mutex wrappers plus a debug-mode lock-rank deadlock detector.
//
// Every engine mutex is a spangle::Mutex constructed with a rank from the
// engine-wide lock hierarchy below. Two complementary guards hang off
// that:
//
//  1. Clang thread-safety analysis (-Wthread-safety, see
//     thread_annotations.h): GUARDED_BY fields and REQUIRES/ACQUIRE/
//     RELEASE preconditions are machine-checked at compile time under the
//     SPANGLE_THREAD_SAFETY_ANALYSIS CMake path.
//
//  2. The lock-rank detector (this file): in debug builds each Lock()
//     checks a thread-local stack of held ranks and aborts with both
//     acquisition sites if locks are taken out of hierarchy order —
//     turning a potential production deadlock (which needs the losing
//     interleaving to fire) into a deterministic single-threaded test
//     failure. Compiled out entirely in release builds
//     (SPANGLE_LOCK_RANK_CHECKS=0): Mutex is then layout-identical to
//     std::mutex and Lock()/Unlock() inline to lock()/unlock().

// SPANGLE_LOCK_RANK_CHECKS is normally injected by CMake (option
// SPANGLE_LOCK_RANK_CHECKS=AUTO|ON|OFF; AUTO = on except Release /
// MinSizeRel builds). Fallback for non-CMake compiles: follow NDEBUG.
#if !defined(SPANGLE_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define SPANGLE_LOCK_RANK_CHECKS 0
#else
#define SPANGLE_LOCK_RANK_CHECKS 1
#endif
#endif

namespace spangle {

/// The engine-wide lock hierarchy, outermost (acquired first) to
/// innermost. The invariant: while holding a lock of rank r, a thread may
/// only acquire locks of *strictly lower* rank. Distinct mutexes may share
/// a rank only if they are never held together (e.g. per-session queues).
///
///   rank | who                                   | held while calling into
///   -----|---------------------------------------|------------------------
///   60   | JobServer::mu_ (job_server.cc,        | session queues (rank
///        |   session registry, admission         | kSessionQueue=58) and
///        |   accounting, dispatch fairness state)| metrics atomics
///   58   | Session::queue_mu_ (job_server.cc,    | metrics atomics only
///        |   one per session: pending-job FIFO + |
///        |   per-tenant stats)                   |
///   56   | Scheduler materialization cv-mutex    | nothing (Materialize()
///        |   (scheduler.cc, stage dependency     | runs outside the lock)
///        |   waits)                              |
///   50   | RpcServer::mu_ (rpc_server.cc,        | nothing (handlers run
///        |   connection/thread bookkeeping)      | outside the lock)
///   48   | ShuffleNode::mu_ (engine.h)           | nothing
///   46   | ExecutorFleet::mu_ (executor_fleet.cc,| RpcClient calls (rank
///        |   daemon slots, spawn/restart)        | kNetClient=12)
///   40   | ExecutorPool::mu_ (batch/queue state, | nothing (task bodies
///        |   per-task status capture)            | run outside the lock)
///   32   | BlockManager::mu_ (budget/LRU/spill   | spill/load codecs only
///        |   maps, PutIfAbsent commit)           | (no engine locks)
///   20   | RuntimeProfile::samples_mu_           | metrics atomics only
///   16   | Context::fault_mu_ (retry/chaos opts) | nothing
///   12   | RpcClient::mu_ (connection pool)      | nothing (calls do their
///        |                                       | I/O outside the lock)
///    8   | EngineMetrics::stage_mu_ (StageStat   | nothing
///        |   retention ring)                     |
///    4   | ResultCache::mu_ (result_cache.cc,    | metrics atomics only
///        |   digest->payload LRU)                |
///    0   | leaves (RunStage extras_mu, ad hoc)   | nothing
///
/// DESIGN.md §10 carries the same table with the full rationale.
enum class LockRank : int {
  kLeaf = 0,
  kResultCache = 4,
  kMetrics = 8,
  kNetClient = 12,
  kConfig = 16,
  kProfileSamples = 20,
  kBlockManager = 32,
  kExecutorPool = 40,
  kNetFleet = 46,
  kShuffleNode = 48,
  kNetServer = 50,
  kScheduler = 56,
  kSessionQueue = 58,
  kJobServer = 60,
};

/// Human-readable name for a rank ("kBlockManager"), for diagnostics.
const char* LockRankName(LockRank rank);

/// True when this build carries the lock-rank detector.
inline constexpr bool kLockRankChecksEnabled = SPANGLE_LOCK_RANK_CHECKS != 0;

#if SPANGLE_LOCK_RANK_CHECKS
namespace lock_rank_internal {
/// Checks the hierarchy and pushes onto the thread-local held-lock stack;
/// aborts with both acquisition sites on an out-of-order acquisition.
void OnAcquire(const void* mu, LockRank rank, const char* name,
               const char* file, int line);
/// Pops `mu` from the held-lock stack; aborts when it is not held.
void OnRelease(const void* mu, const char* name);
/// True when the calling thread holds `mu`.
bool IsHeld(const void* mu);
/// Number of locks the calling thread holds (test hook).
int HeldCount();
}  // namespace lock_rank_internal
#endif

/// Number of ranked locks the calling thread currently holds. Always 0
/// when the detector is compiled out.
int HeldLockCountForTest();

/// Annotated exclusive mutex. Engine code uses the capitalized API
/// (Lock/Unlock/TryLock) or MutexLock; the lowercase BasicLockable
/// surface exists only so CondVar (std::condition_variable_any) can
/// unlock/relock around waits — it goes through the same rank
/// bookkeeping but is invisible to thread-safety analysis.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kLeaf, const char* name = "mutex")
#if SPANGLE_LOCK_RANK_CHECKS
      : rank_(rank), name_(name) {
  }
#else
  {
    (void)rank;
    (void)name;
  }
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) ACQUIRE() {
#if SPANGLE_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(this, rank_, name_, file, line);
#else
    (void)file;
    (void)line;
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
    // Bookkeeping first: an unlock of a mutex this thread does not hold
    // dies in the detector before reaching undefined behavior below.
#if SPANGLE_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

  [[nodiscard]] bool TryLock(const char* file = __builtin_FILE(),
                             int line = __builtin_LINE()) TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
#if SPANGLE_LOCK_RANK_CHECKS
    if (ok) lock_rank_internal::OnAcquire(this, rank_, name_, file, line);
#else
    (void)file;
    (void)line;
#endif
    return ok;
  }

  /// Runtime counterpart of REQUIRES(): aborts (debug only) when the
  /// calling thread does not hold this mutex.
  void AssertHeld() const ASSERT_CAPABILITY(this);

#if SPANGLE_LOCK_RANK_CHECKS
  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }
#endif

  // BasicLockable interface — for std::condition_variable_any (CondVar)
  // only. Unannotated on purpose: the cv's internal unlock/relock is not
  // a capability change the analysis should see (absl::CondVar's model).
  void lock() NO_THREAD_SAFETY_ANALYSIS {
#if SPANGLE_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(this, rank_, name_, "(condvar-reacquire)",
                                  0);
#endif
    mu_.lock();
  }
  void unlock() NO_THREAD_SAFETY_ANALYSIS {
#if SPANGLE_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

 private:
  std::mutex mu_;
#if SPANGLE_LOCK_RANK_CHECKS
  const LockRank rank_;
  const char* const name_;
#endif
};

#if !SPANGLE_LOCK_RANK_CHECKS
// The detector is compiled out, not just disabled: no rank/name members,
// no thread-local bookkeeping, identical layout to the raw mutex.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "release Mutex must carry no detector state");
#endif

/// RAII exclusive lock. Supports mid-scope Unlock()/Lock() (the executor
/// pool's help-then-wait loop); the destructor releases only when held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(file, line);
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }

  void Unlock() RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) ACQUIRE() {
    mu_->Lock(file, line);
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// Condition variable bound to spangle::Mutex. Wait methods REQUIRE the
/// mutex: the analysis treats the capability as held across the wait (the
/// internal unlock/relock goes through Mutex's unannotated lowercase
/// surface, where the rank detector still sees it).
///
/// Predicate overloads are for predicates over *locals or unannotated
/// fields* only — a predicate lambda reading a GUARDED_BY field trips the
/// analysis (the lambda body carries no REQUIRES); use an explicit
/// `while (!cond) cv.Wait(mu);` loop there instead, where the condition
/// is checked in the annotated caller's scope.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    return cv_.wait_for(mu, d);
  }

  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& d,
               Pred pred) REQUIRES(mu) {
    return cv_.wait_for(mu, d, std::move(pred));
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace spangle

#endif  // SPANGLE_COMMON_MUTEX_H_
