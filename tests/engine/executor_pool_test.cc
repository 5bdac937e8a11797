#include "engine/executor_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

namespace spangle {
namespace {

TEST(ExecutorPoolTest, RunsEveryTaskExactlyOnce) {
  ExecutorPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  std::vector<std::atomic<int>> per_task(100);
  for (int i = 0; i < 100; ++i) {
    tasks.emplace_back([&counter, &per_task, i] {
      counter.fetch_add(1);
      per_task[i].fetch_add(1);
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(per_task[i].load(), 1) << "task " << i;
  }
}

TEST(ExecutorPoolTest, ManySequentialBatches) {
  ExecutorPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 7; ++i) {
      tasks.emplace_back([&total] { total.fetch_add(1); });
    }
    pool.RunAll(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(ExecutorPoolTest, EmptyBatchReturnsImmediately) {
  ExecutorPool pool(2);
  pool.RunAll(std::vector<std::function<void()>>{});
  SUCCEED();
}

TEST(ExecutorPoolTest, SingleWorkerRunsInline) {
  ExecutorPool pool(1);
  const auto driver = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  std::vector<std::function<void()>> tasks;
  std::mutex mu;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back([&] {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  pool.RunAll(std::move(tasks));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), driver) << "pool of 1 = the driver thread";
}

TEST(ExecutorPoolTest, TasksSpreadAcrossWorkers) {
  ExecutorPool pool(4);
  std::set<std::thread::id> seen;
  std::mutex mu;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      }
      // Hold the task long enough that other workers pick work up.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_GE(seen.size(), 2u) << "more than one executor participated";
}

TEST(ExecutorPoolTest, ConcurrentRunAllFromTwoDriversBothComplete) {
  // Two driver threads each submit their own batch; each must return
  // only when its own batch is done, and both batches must fully run.
  ExecutorPool pool(4);
  std::atomic<int> a_done{0}, b_done{0};
  auto submit = [&pool](std::atomic<int>* counter, int n) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < n; ++i) {
      tasks.emplace_back([counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter->fetch_add(1);
      });
    }
    pool.RunAll(std::move(tasks));
    // Barrier semantics hold per batch even with another driver active.
    EXPECT_EQ(counter->load(), n);
  };
  std::thread da([&] { submit(&a_done, 23); });
  std::thread db([&] { submit(&b_done, 31); });
  da.join();
  db.join();
  EXPECT_EQ(a_done.load(), 23);
  EXPECT_EQ(b_done.load(), 31);
}

TEST(ExecutorPoolTest, ObserverReportsEveryTaskWithSaneTimings) {
  ExecutorPool pool(3);
  std::vector<TaskTiming> timings(16);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.emplace_back(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  }
  const uint64_t before = pool.NowMicros();
  pool.RunAll(std::move(tasks), [&timings](const TaskTiming& t) {
    timings[t.index] = t;
  });
  const uint64_t after = pool.NowMicros();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(timings[i].index, i);
    EXPECT_GE(timings[i].lane, 0);
    EXPECT_LT(timings[i].lane, 3);
    EXPECT_GE(timings[i].start_us, before);
    EXPECT_GE(timings[i].duration_us, 1000u) << "task slept 2ms";
    EXPECT_LE(timings[i].start_us + timings[i].duration_us, after);
  }
}

TEST(ExecutorPoolTest, NestedRunAllInsideTaskCompletes) {
  // Regression: submitting a batch from inside a task used to CHECK-fail
  // (and before the CHECK, deadlocked — the task waited on a barrier only
  // its own lane could drain). Batch state is now per-batch and a nested
  // caller drains its own batch inline, so this must simply complete —
  // even on a pool of 1, where the driver lane is the only lane.
  ExecutorPool pool(1);
  std::atomic<int> inner_ran{0};
  std::vector<std::function<void()>> outer;
  outer.emplace_back([&pool, &inner_ran] {
    std::vector<std::function<void()>> inner;
    for (int i = 0; i < 5; ++i) {
      inner.emplace_back([&inner_ran] { inner_ran.fetch_add(1); });
    }
    pool.RunAll(std::move(inner));
    // Nested barrier semantics: the inner batch is done before the
    // nested RunAll returns, while the outer task is still in flight.
    EXPECT_EQ(inner_ran.load(), 5);
  });
  pool.RunAll(std::move(outer));
  EXPECT_EQ(inner_ran.load(), 5);
}

TEST(ExecutorPoolTest, ConcurrentNestedRunAllFromEveryLane) {
  // Every task of the outer batch nests its own inner batch, so nested
  // submissions outnumber lanes and interleave with each other and with
  // the outer batch on the shared queue.
  ExecutorPool pool(4);
  static constexpr int kOuter = 12;
  static constexpr int kInner = 9;
  std::atomic<int> inner_total{0};
  std::vector<std::function<void()>> outer;
  for (int t = 0; t < kOuter; ++t) {
    outer.emplace_back([&pool, &inner_total] {
      std::vector<std::function<void()>> inner;
      std::atomic<int> mine{0};
      for (int i = 0; i < kInner; ++i) {
        inner.emplace_back([&inner_total, &mine] {
          inner_total.fetch_add(1);
          mine.fetch_add(1);
        });
      }
      pool.RunAll(std::move(inner));
      EXPECT_EQ(mine.load(), kInner) << "nested barrier returned early";
    });
  }
  pool.RunAll(std::move(outer));
  EXPECT_EQ(inner_total.load(), kOuter * kInner);
}

TEST(ExecutorPoolTest, DoublyNestedRunAllUnwindsDepthCorrectly) {
  // Three levels of nesting, then a second batch back at depth 1: every
  // nested caller must drain its own batch inline rather than park on a
  // barrier no free lane would ever release.
  ExecutorPool pool(2);
  std::atomic<int> leaf_ran{0};
  std::vector<std::function<void()>> outer;
  outer.emplace_back([&pool, &leaf_ran] {
    pool.RunAll({[&pool, &leaf_ran] {
      pool.RunAll({[&leaf_ran] { leaf_ran.fetch_add(1); },
                   [&leaf_ran] { leaf_ran.fetch_add(1); }});
    }});
    // Back at depth 1: this second nested batch must also self-drain.
    pool.RunAll({[&leaf_ran] { leaf_ran.fetch_add(1); }});
  });
  pool.RunAll(std::move(outer));
  EXPECT_EQ(leaf_ran.load(), 3);
}

TEST(ExecutorPoolTest, NestedRunAllErrorStaysInItsOwnBatch) {
  // An exception in a nested batch surfaces in the *nested* RunAll's
  // result and must not poison the outer batch.
  ExecutorPool pool(2);
  std::atomic<bool> inner_threw{false};
  std::vector<ExecutorPool::Task> outer;
  outer.emplace_back([&pool, &inner_threw] {
    std::vector<ExecutorPool::Task> inner;
    inner.emplace_back([] { throw std::runtime_error("nested boom"); });
    const ExecutorPool::BatchResult res = pool.RunAll(std::move(inner));
    inner_threw.store(res.tasks.size() == 1 &&
                      res.tasks[0].status.message() == "nested boom" &&
                      res.tasks[0].error != nullptr);
  });
  outer.emplace_back([] {});
  const ExecutorPool::BatchResult res = pool.RunAll(std::move(outer));
  EXPECT_TRUE(res.ok()) << "outer batch poisoned by nested error";
  EXPECT_TRUE(inner_threw.load());
}

TEST(ExecutorPoolTest, RunAllPropagatesWorkDoneBeforeReturn) {
  // Whatever tasks write must be visible after RunAll returns (barrier).
  ExecutorPool pool(4);
  std::vector<int> out(200, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 200; ++i) {
    tasks.emplace_back([&out, i] { out[i] = i * i; });
  }
  pool.RunAll(std::move(tasks));
  for (int i = 0; i < 200; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ExecutorPoolTest, ThrowingTaskDoesNotPoisonBatch) {
  // The failure contract: a throwing task is captured per-task; every
  // unrelated task in the batch still runs to completion.
  ExecutorPool pool(4);
  std::atomic<int> ran{0};
  std::vector<ExecutorPool::Task> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.emplace_back([&ran, i] {
      if (i == 7) throw std::runtime_error("boom in task 7");
      ran.fetch_add(1);
    });
  }
  const ExecutorPool::BatchResult res = pool.RunAll(std::move(tasks));
  EXPECT_EQ(ran.load(), 31);
  ASSERT_EQ(res.tasks.size(), 32u);
  EXPECT_FALSE(res.ok());
  for (int i = 0; i < 32; ++i) {
    if (i == 7) {
      EXPECT_FALSE(res.tasks[i].status.ok());
      EXPECT_NE(res.tasks[i].status.ToString().find("boom in task 7"),
                std::string::npos);
      EXPECT_NE(res.tasks[i].error, nullptr);
    } else {
      EXPECT_TRUE(res.tasks[i].status.ok()) << "task " << i;
    }
  }
}

TEST(ExecutorPoolTest, ThrowingBatchLeavesConcurrentBatchIntact) {
  // Two drivers share the workers; one batch throwing must not disturb
  // the other batch's tasks or barrier.
  ExecutorPool pool(4);
  std::atomic<int> good{0};
  std::atomic<bool> bad_failed{false};
  std::thread bad([&] {
    std::vector<ExecutorPool::Task> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.emplace_back([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw std::runtime_error("all tasks fail");
      });
    }
    bad_failed.store(!pool.RunAll(std::move(tasks)).ok());
  });
  std::thread ok([&] {
    std::vector<ExecutorPool::Task> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.emplace_back([&good] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        good.fetch_add(1);
      });
    }
    EXPECT_TRUE(pool.RunAll(std::move(tasks)).ok());
  });
  bad.join();
  ok.join();
  EXPECT_TRUE(bad_failed.load());
  EXPECT_EQ(good.load(), 16);
}

}  // namespace
}  // namespace spangle
