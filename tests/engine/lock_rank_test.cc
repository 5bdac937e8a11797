#include "common/mutex.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "engine/engine.h"

// Proof obligations for the lock-rank deadlock detector (see
// src/common/mutex.h and DESIGN.md §10):
//   * correctly ordered nesting (strictly decreasing rank) passes;
//   * a deliberate inversion dies with the "lock-rank violation"
//     diagnostic naming both mutexes and their acquisition sites;
//   * CondVar waits, TryLock, and RAII holders all feed the same
//     held-lock bookkeeping;
//   * the whole detector is compiled out in release builds
//     (SPANGLE_LOCK_RANK_CHECKS=0): Mutex shrinks to a bare std::mutex
//     and the seeded inversion goes (intentionally) undetected.

namespace spangle {
namespace {

#if SPANGLE_LOCK_RANK_CHECKS

using LockRankDeathTest = ::testing::Test;

TEST(LockRankTest, ChecksAreEnabledInThisBuild) {
  EXPECT_TRUE(kLockRankChecksEnabled);
}

TEST(LockRankTest, OrderedNestingPasses) {
  Mutex outer(LockRank::kScheduler, "outer");
  Mutex middle(LockRank::kBlockManager, "middle");
  Mutex inner(LockRank::kMetrics, "inner");
  MutexLock l1(&outer);
  MutexLock l2(&middle);
  MutexLock l3(&inner);
  EXPECT_EQ(HeldLockCountForTest(), 3);
}

TEST(LockRankTest, RaiiReleasesRestoreTheStack) {
  Mutex mu(LockRank::kLeaf, "raii");
  EXPECT_EQ(HeldLockCountForTest(), 0);
  {
    MutexLock lock(&mu);
    EXPECT_EQ(HeldLockCountForTest(), 1);
  }
  EXPECT_EQ(HeldLockCountForTest(), 0);
}

TEST(LockRankTest, ManualUnlockRelockTracks) {
  // The executor pool's help-then-wait loop: MutexLock with mid-scope
  // Unlock()/Lock().
  Mutex mu(LockRank::kExecutorPool, "manual");
  MutexLock lock(&mu);
  EXPECT_EQ(HeldLockCountForTest(), 1);
  lock.Unlock();
  EXPECT_EQ(HeldLockCountForTest(), 0);
  lock.Lock();
  EXPECT_EQ(HeldLockCountForTest(), 1);
}

TEST(LockRankTest, TryLockParticipates) {
  Mutex mu(LockRank::kConfig, "trylock");
  ASSERT_TRUE(mu.TryLock());
  EXPECT_EQ(HeldLockCountForTest(), 1);
  mu.AssertHeld();
  mu.Unlock();
  EXPECT_EQ(HeldLockCountForTest(), 0);
}

TEST(LockRankTest, CondVarWaitKeepsBookkeepingConsistent) {
  Mutex mu(LockRank::kScheduler, "cv_mu");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    // The wait's internal unlock/relock went through the detector; the
    // stack must show exactly this one lock held.
    EXPECT_EQ(HeldLockCountForTest(), 1);
  }
  waker.join();
  EXPECT_EQ(HeldLockCountForTest(), 0);
}

TEST(LockRankDeathTest, InversionDiesWithDiagnostic) {
  EXPECT_DEATH(
      {
        Mutex lower(LockRank::kBlockManager, "block_manager_like");
        Mutex higher(LockRank::kScheduler, "scheduler_like");
        MutexLock l1(&lower);
        MutexLock l2(&higher);  // rank 56 acquired under rank 32: inversion
      },
      "lock-rank violation.*scheduler_like.*block_manager_like");
}

TEST(LockRankDeathTest, SameRankNestingDies) {
  // Equal ranks may never nest (the strict-ordering rule is what makes
  // same-rank mutexes deadlock-free by construction).
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kBlockManager, "bm_a");
        Mutex b(LockRank::kBlockManager, "bm_b");
        MutexLock l1(&a);
        MutexLock l2(&b);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, RecursiveAcquisitionDies) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "recursive");
        mu.Lock();
        mu.Lock();
      },
      "lock-rank violation: recursive acquisition");
}

TEST(LockRankDeathTest, UnlockOfUnheldDies) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "never_locked");
        mu.Unlock();
      },
      "lock-rank violation: releasing mutex");
}

TEST(LockRankDeathTest, AssertHeldDiesWhenNotHeld) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "unheld");
        mu.AssertHeld();
      },
      "lock-rank violation: AssertHeld");
}

TEST(LockRankTest, ServingHierarchyNestsInOrder) {
  // The serving layer's sanctioned nesting: server lock over a session
  // queue lock, with metrics/cache leaves below. (Job execution itself
  // runs with no server lock held — see DESIGN.md §10.)
  Mutex server(LockRank::kJobServer, "job_server_like");
  Mutex queue(LockRank::kSessionQueue, "session_queue_like");
  Mutex cache(LockRank::kResultCache, "result_cache_like");
  MutexLock l1(&server);
  MutexLock l2(&queue);
  MutexLock l3(&cache);
  EXPECT_EQ(HeldLockCountForTest(), 3);
}

TEST(LockRankDeathTest, SessionQueueOverJobServerDies) {
  // A submit path that took its session's queue lock first and then
  // reached back into the server would invert the serving hierarchy.
  EXPECT_DEATH(
      {
        Mutex server(LockRank::kJobServer, "job_server_like");
        Mutex queue(LockRank::kSessionQueue, "session_queue_like");
        MutexLock l1(&queue);
        MutexLock l2(&server);  // rank 60 under rank 58: inversion
      },
      "lock-rank violation.*job_server_like.*session_queue_like");
}

TEST(LockRankDeathTest, SchedulerOverJobServerDies) {
  // Job execution must never call back into the server with engine locks
  // held: the server sits *above* the scheduler in the hierarchy.
  EXPECT_DEATH(
      {
        Mutex server(LockRank::kJobServer, "job_server_like");
        Mutex sched(LockRank::kScheduler, "scheduler_like");
        MutexLock l1(&sched);
        MutexLock l2(&server);  // rank 60 under rank 56: inversion
      },
      "lock-rank violation.*job_server_like.*scheduler_like");
}

TEST(LockRankDeathTest, ResultCacheOverMetricsDies) {
  // The cache is leaf-like (rank 4): holding it while taking the metrics
  // StageStat lock would put a lock *above* it that its own users nest
  // below, so the detector bans it.
  EXPECT_DEATH(
      {
        Mutex cache(LockRank::kResultCache, "result_cache_like");
        Mutex metrics(LockRank::kMetrics, "metrics_like");
        MutexLock l1(&cache);
        MutexLock l2(&metrics);  // rank 8 under rank 4: inversion
      },
      "lock-rank violation.*metrics_like.*result_cache_like");
}

TEST(LockRankTest, DiagnosticListsFullHeldStack) {
  // The report names every held lock, outermost first, with its site.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kScheduler, "stack_outer");
        Mutex b(LockRank::kBlockManager, "stack_middle");
        Mutex c(LockRank::kJobServer, "stack_newcomer");
        MutexLock l1(&a);
        MutexLock l2(&b);
        MutexLock l3(&c);
      },
      "lock-rank violation.*stack_newcomer.*Held locks, outermost "
      "first:.*stack_outer.*stack_middle");
}

// The real engine hierarchy, end to end: a shuffle job with
// chaos-injected delays, profiling, spill-eligible storage, and a
// post-run metrics/profile read-out. The engine ranks on these paths —
// Scheduler > ShuffleNode > ExecutorPool > BlockManager > Profile >
// Config > Metrics — are all acquired; with the detector active, any
// ordering regression aborts this test.
TEST(LockRankTest, EngineSmokeExercisesTheRealHierarchy) {
  Context ctx(3);
  auto chaos = std::make_shared<ChaosPolicy>();
  chaos->delay_us = [](const ChaosTaskInfo& info) -> uint64_t {
    return info.task == 0 ? 500 : 0;  // one slow task per stage
  };
  ctx.set_chaos_policy(chaos);

  std::vector<std::pair<uint64_t, int>> records;
  for (int i = 0; i < 64; ++i) {
    records.emplace_back(static_cast<uint64_t>(i % 8), i);
  }
  auto reduced = ToPair<uint64_t, int>(ctx.Parallelize(records, 8))
                     .ReduceByKey([](const int& a, const int& b) {
                       return a + b;
                     });
  const auto out = reduced.Collect();
  EXPECT_EQ(out.size(), 8u);

  ctx.set_chaos_policy(nullptr);
  EXPECT_GT(ctx.metrics().shuffles.load(), 0u);
  EXPECT_FALSE(ctx.metrics().StageStats().empty());
  EXPECT_EQ(HeldLockCountForTest(), 0);
}

#else  // !SPANGLE_LOCK_RANK_CHECKS

TEST(LockRankTest, DetectorCompiledOutInRelease) {
  EXPECT_FALSE(kLockRankChecksEnabled);
  // No detector state: the annotated wrapper is layout-identical to the
  // raw mutex it wraps.
  static_assert(sizeof(Mutex) == sizeof(std::mutex),
                "release Mutex must carry no detector state");
  // The seeded inversion from the debug suite goes undetected — locks
  // are plain mutexes now, and no bookkeeping runs.
  Mutex lower(LockRank::kBlockManager, "block_manager_like");
  Mutex higher(LockRank::kScheduler, "scheduler_like");
  MutexLock l1(&lower);
  MutexLock l2(&higher);
  EXPECT_EQ(HeldLockCountForTest(), 0);
}

#endif  // SPANGLE_LOCK_RANK_CHECKS

}  // namespace
}  // namespace spangle
