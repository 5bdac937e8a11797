#include "engine/executor_pool.h"

#include "common/logging.h"

namespace spangle {

namespace {

// Lane id of the current thread (worker threads get theirs at spawn,
// driver threads on their first RunAll). -1 = not yet assigned.
thread_local int tl_lane = -1;

// Human-readable message for a captured task exception.
std::string DescribeError(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown non-std exception";
  }
}

}  // namespace

ExecutorPool::ExecutorPool(int num_workers)
    : num_workers_(num_workers),
      epoch_(std::chrono::steady_clock::now()),
      next_driver_lane_(num_workers - 1) {
  SPANGLE_CHECK_GE(num_workers, 1);
  // Driver threads participate in RunAll, so spawn one fewer thread.
  const int extra = num_workers - 1;
  workers_.reserve(extra);
  for (int i = 0; i < extra; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ExecutorPool::~ExecutorPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (auto& t : workers_) t.join();
}

int ExecutorPool::LaneForThisThread() {
  if (tl_lane < 0) tl_lane = next_driver_lane_.fetch_add(1);
  return tl_lane;
}

ExecutorPool::BatchResult ExecutorPool::RunAll(std::vector<Task> tasks,
                                               const TaskObserver& observer) {
  BatchResult result;
  if (tasks.empty()) return result;
  const int n = static_cast<int>(tasks.size());
  auto batch = std::make_shared<Batch>(&mu_);
  batch->tasks = std::move(tasks);
  batch->observer = observer;
  {
    // Guarded state is populated under the lock it is guarded by, even
    // though the batch is not yet visible to workers — publication and
    // initialization share one critical section.
    MutexLock lock(&mu_);
    batch->mu->AssertHeld();
    batch->slots.resize(n);
    batch->outstanding = static_cast<size_t>(n);
    for (int i = 0; i < n; ++i) batch->queue.push_back(i);
    active_.push_back(batch);
  }
  work_ready_.NotifyAll();
  // Help drain our own batch (never another driver's: returning promptly
  // once our batch finishes matters more than global throughput here).
  // This also guarantees progress for a nested batch (RunAll from inside
  // a task body), whose only certain lane is this one.
  while (RunOneTask(batch.get())) {
  }
  {
    MutexLock lock(&mu_);
    batch->mu->AssertHeld();
    // Explicit wait loop, not a predicate lambda: outstanding is guarded
    // and the analysis cannot see the lock inside a lambda body (same
    // idiom as WorkerLoop).
    // blocking-ok: batch->mu aliases mu_, which the wait releases.
    while (batch->outstanding != 0) batch_done_.Wait(mu_);
    for (auto it = active_.begin(); it != active_.end(); ++it) {
      if (it->get() == batch.get()) {
        active_.erase(it);
        break;
      }
    }
    result.tasks.resize(n);
    for (int i = 0; i < n; ++i) {
      Slot& s = batch->slot(i);
      result.tasks[i] = {std::move(s.status), std::move(s.error)};
    }
  }
  return result;
}

bool ExecutorPool::AnyRunnableLocked() const {
  for (const auto& b : active_) {
    b->mu->AssertHeld();
    if (!b->queue.empty()) return true;
  }
  return false;
}

bool ExecutorPool::RunOneTask(Batch* only) {
  std::shared_ptr<Batch> batch;
  int index = 0;
  {
    MutexLock lock(&mu_);
    if (only != nullptr) {
      only->mu->AssertHeld();
      if (!only->queue.empty()) {
        for (const auto& b : active_) {
          if (b.get() == only) {
            batch = b;
            break;
          }
        }
      }
    } else {
      for (const auto& b : active_) {
        b->mu->AssertHeld();
        if (!b->queue.empty()) {
          batch = b;
          break;
        }
      }
    }
    if (batch == nullptr) return false;
    batch->mu->AssertHeld();
    index = batch->queue.front();
    batch->queue.pop_front();
  }
  TaskTiming timing;
  timing.index = index;
  timing.lane = LaneForThisThread();
  timing.start_us = NowMicros();
  std::exception_ptr err;
  try {
    batch->tasks[index]();
  } catch (...) {
    err = std::current_exception();
  }
  timing.duration_us = NowMicros() - timing.start_us;
  if (batch->observer) batch->observer(timing);
  {
    MutexLock lock(&mu_);
    batch->mu->AssertHeld();
    if (err != nullptr) {
      Slot& s = batch->slot(index);
      s.status = Status::Internal(DescribeError(err));
      // Moved into the slot while still holding mu_, so the final release
      // of the exception — and the free TSan watches — always happens on
      // the driver after it takes mu_ at the barrier, never on a worker
      // racing the driver's reads of the exception contents.
      s.error = std::move(err);
    }
    if (--batch->outstanding == 0) batch_done_.NotifyAll();
  }
  return true;
}

void ExecutorPool::WorkerLoop(int lane) {
  tl_lane = lane;
  for (;;) {
    {
      // Explicit wait loop (not a predicate lambda): shutdown_ is
      // GUARDED_BY(mu_) and AnyRunnableLocked REQUIRES(mu_), which the
      // analysis can only see in this scope, where the lock is held.
      MutexLock lock(&mu_);
      while (!shutdown_ && !AnyRunnableLocked()) work_ready_.Wait(mu_);
      if (shutdown_) return;
    }
    while (RunOneTask(nullptr)) {
    }
  }
}

}  // namespace spangle
