#ifndef SPANGLE_ENGINE_EXECUTOR_POOL_H_
#define SPANGLE_ENGINE_EXECUTOR_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace spangle {

/// Where and when one task attempt ran. Times are microseconds relative
/// to the pool's construction, so timings from different stages of one
/// context share an epoch and can be laid out on a common trace timeline.
struct TaskTiming {
  int index = 0;        // task index within its batch
  int lane = 0;         // executor lane that ran it (see RunAll)
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
};

/// Fixed pool of worker threads standing in for the cluster's executors.
/// A driver thread submits one batch of tasks per stage with RunAll(),
/// which blocks until every task of that batch has finished — mirroring
/// Spark's stage barrier. Each task runs exactly once per batch; retrying
/// a failed task is the caller's job (a new batch after the barrier).
///
/// Failure contract: a task body that throws does NOT poison the batch or
/// the pool. The exception is captured per task, unrelated tasks keep
/// running, and RunAll reports one TaskResult per task (Status plus the
/// captured exception_ptr) so the scheduler can retry or re-plan.
///
/// Multiple driver threads may call RunAll() concurrently (the DAG
/// scheduler materializes independent shuffle stages in parallel, and the
/// JobServer's dispatchers interleave stages of different jobs): each
/// call is an independent batch, workers drain tasks from every active
/// batch, and each caller returns when its own batch completes. RunAll()
/// from *inside a task* is also legal: all batch state is per-batch, and
/// a nested caller always drains its own batch inline (it never waits for
/// a lane — every lane may be busy with the batches that got it here), so
/// the nested barrier cannot deadlock.
class ExecutorPool {
 public:
  using Task = std::function<void()>;

  /// Observer invoked once per task, after it returns, from the thread
  /// that ran it. May be called concurrently; implementations must be
  /// thread-safe.
  using TaskObserver = std::function<void(const TaskTiming&)>;

  /// Outcome of one task.
  struct TaskResult {
    Status status;             // OK when the task returned normally
    std::exception_ptr error;  // captured exception when !status.ok()
  };

  /// Outcome of one batch.
  struct BatchResult {
    std::vector<TaskResult> tasks;

    bool ok() const {
      for (const auto& t : tasks) {
        if (!t.status.ok()) return false;
      }
      return true;
    }
  };

  explicit ExecutorPool(int num_workers);
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Runs all tasks across the pool; the calling thread participates, so a
  /// pool of size 1 degenerates to serial in-line execution. Lanes number
  /// the threads that can run tasks: pool workers take 0..num_workers-2,
  /// the first driver thread num_workers-1, and additional concurrent
  /// drivers (scheduler threads) count up from there. Returns one
  /// TaskResult per task; never throws on task failure.
  BatchResult RunAll(std::vector<Task> tasks,
                     const TaskObserver& observer = nullptr);

  /// Microseconds since pool construction (the trace epoch).
  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  /// Per-task outcome. Guarded by the owning pool's mu_, reached only
  /// through Batch::slot(i) (REQUIRES(mu) + runtime AssertHeld); the
  /// analysis cannot re-state the capability on fields of an element
  /// type, so Slot itself stays unannotated — see Batch::slot for the
  /// full capability story.
  struct Slot {
    Status status;
    std::exception_ptr error;
  };

  struct Batch {
    explicit Batch(Mutex* pool_mu) : mu(pool_mu) {}

    /// The owning pool's mu_ — gives the analysis a name for "this
    /// batch's guarded state". Scopes that hold the pool lock re-state
    /// it per batch with mu->AssertHeld() (the analysis cannot infer
    /// that batch->mu aliases the pool's mu_ on its own).
    Mutex* const mu;

    // Written once before the batch is published to active_, immutable
    // afterward: task bodies and observers run with mu_ released, so
    // these two must NOT be guarded.
    std::vector<Task> tasks;  // invoked by index
    TaskObserver observer;

    std::deque<int> queue GUARDED_BY(mu);  // task indices not picked up
    std::vector<Slot> slots GUARDED_BY(mu);
    size_t outstanding GUARDED_BY(mu) = 0;  // queued + running tasks

    /// The only sanctioned way to reach a Slot. GUARDED_BY attaches a
    /// capability to a *member*; the Slots inside `slots` are elements
    /// of a member, one indirection past where the analysis stops — it
    /// checks access to the vector, then loses track of the references
    /// handed out, so Slot fields cannot carry the annotation at all.
    /// This accessor closes the gap: REQUIRES(mu) makes every caller
    /// prove it holds the pool lock at compile time, and AssertHeld()
    /// re-checks at runtime (under SPANGLE_LOCK_RANK_CHECKS), catching
    /// a reference that escaped a locked scope and was dereferenced
    /// after unlock — exactly the bug class the static analysis cannot
    /// see here.
    Slot& slot(size_t i) REQUIRES(mu) {
      mu->AssertHeld();
      return slots[i];
    }
  };

  void WorkerLoop(int lane) EXCLUDES(mu_);
  /// Picks one queued task — from `only` when given, else from any
  /// active batch — runs it, and returns true. False when nothing to run.
  bool RunOneTask(Batch* only) EXCLUDES(mu_);
  bool AnyRunnableLocked() const REQUIRES(mu_);
  int LaneForThisThread();

  const int num_workers_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::thread> workers_;
  std::atomic<int> next_driver_lane_;

  // Rank kExecutorPool: task bodies run with mu_ RELEASED, so the lock
  // is never held across user code or other engine locks. Batch state is
  // annotated through Batch::mu (a pointer to this mu_): each locked
  // scope asserts the alias with batch->mu->AssertHeld(), which is also
  // a runtime check under SPANGLE_LOCK_RANK_CHECKS. Slot fields cannot
  // carry the capability (element type of a guarded vector), so every
  // Slot access goes through Batch::slot(i), which demands the lock
  // statically (REQUIRES) and asserts it at runtime; the TSan suites
  // (storage | scheduler | chaos | net | codec) cover what remains.
  mutable Mutex mu_{LockRank::kExecutorPool, "ExecutorPool::mu_"};
  CondVar work_ready_;
  CondVar batch_done_;
  std::deque<std::shared_ptr<Batch>> active_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_EXECUTOR_POOL_H_
