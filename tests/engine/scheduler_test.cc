#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/engine.h"

namespace spangle {
namespace {

using KV = std::pair<uint64_t, int>;

std::vector<KV> MakePairs(int n) {
  std::vector<KV> out;
  for (int i = 0; i < n; ++i) out.emplace_back(i % 10, i);
  return out;
}

// ---- Plan structure ----

TEST(SchedulerPlanTest, NarrowLineagePlansOneResultStage) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(std::vector<int>{1, 2, 3, 4}, 2)
                 .Map([](int v) { return v * 2; });
  PhysicalPlan plan = ctx.BuildPlan(rdd.node());
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_FALSE(plan.stages[0].is_shuffle);
  EXPECT_EQ(plan.stages[0].name, "collect");
  EXPECT_EQ(plan.stages[0].num_tasks, 2);
  EXPECT_EQ(plan.NumPendingShuffleStages(), 0);
  EXPECT_EQ(plan.MaxOverlapWidth(), 0);
  EXPECT_NE(rdd.Explain().find("pending shuffle stages: 0"),
            std::string::npos);
  // Explain is pure introspection: nothing ran.
  EXPECT_EQ(ctx.metrics().tasks_run.load(), 0u);
  EXPECT_EQ(ctx.metrics().jobs_run.load(), 0u);
}

TEST(SchedulerPlanTest, ChainedShufflesDependInOrder) {
  Context ctx(2);
  auto pairs = ToPair(ctx.Parallelize(MakePairs(40), 4));
  auto reduced = pairs.ReduceByKey([](int a, int b) { return a + b; });
  auto replaced =
      reduced.PartitionBy(std::make_shared<ModuloPartitioner<uint64_t>>(3));
  PhysicalPlan plan = ctx.BuildPlan(replaced.AsRdd().node());
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_TRUE(plan.stages[0].is_shuffle);
  EXPECT_NE(plan.stages[0].name.find("reduceByKey"), std::string::npos);
  EXPECT_TRUE(plan.stages[1].is_shuffle);
  EXPECT_NE(plan.stages[1].name.find("partitionBy"), std::string::npos);
  EXPECT_EQ(plan.stages[1].deps, std::vector<int>{0});
  EXPECT_FALSE(plan.stages[2].is_shuffle);
  EXPECT_EQ(plan.stages[2].deps, std::vector<int>{1});
  EXPECT_EQ(plan.NumPendingShuffleStages(), 2);
  // A chain has no two shuffles free to overlap.
  EXPECT_EQ(plan.MaxOverlapWidth(), 1);
}

TEST(SchedulerPlanTest, DiamondLineagePlansSharedShuffleOnce) {
  Context ctx(2);
  auto pairs = ToPair(ctx.Parallelize(MakePairs(40), 4));
  auto reduced = pairs.ReduceByKey([](int a, int b) { return a + b; });
  // Two branches off the same shuffle, merged again: the shuffle must be
  // planned once, not once per path.
  auto left = reduced.MapValues([](int v) { return v + 1; });
  auto right = reduced.MapValues([](int v) { return v - 1; });
  auto merged = left.AsRdd().Union(right.AsRdd());
  PhysicalPlan plan = ctx.BuildPlan(merged.node());
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_TRUE(plan.stages[0].is_shuffle);
  EXPECT_FALSE(plan.stages[1].is_shuffle);
  EXPECT_EQ(plan.stages[1].deps, std::vector<int>{0});
}

TEST(SchedulerPlanTest, IndependentShufflesCanOverlap) {
  Context ctx(2);
  auto p = std::make_shared<HashPartitioner<uint64_t>>(3);
  auto a = ToPair(ctx.Parallelize(MakePairs(30), 3))
               .ReduceByKey([](int x, int y) { return x + y; }, p);
  auto b = ToPair(ctx.Parallelize(MakePairs(30), 3))
               .ReduceByKey([](int x, int y) { return x * y; }, p);
  auto joined = a.Join(b);
  PhysicalPlan plan = ctx.BuildPlan(joined.AsRdd().node(), "count");
  EXPECT_EQ(plan.NumPendingShuffleStages(), 2);
  EXPECT_EQ(plan.MaxOverlapWidth(), 2);
  // Neither shuffle depends on the other.
  for (const auto& s : plan.stages) {
    if (s.is_shuffle) {
      EXPECT_TRUE(s.deps.empty());
    }
  }
}

TEST(SchedulerPlanTest, MaterializedShuffleIsSkippedAndCutsTheWalk) {
  Context ctx(2);
  auto pairs = ToPair(ctx.Parallelize(MakePairs(40), 4));
  auto reduced = pairs.ReduceByKey([](int a, int b) { return a + b; });
  auto replaced =
      reduced.PartitionBy(std::make_shared<ModuloPartitioner<uint64_t>>(3));
  replaced.AsRdd().Count();  // materializes both shuffles

  PhysicalPlan plan = ctx.BuildPlan(replaced.AsRdd().node());
  // The top shuffle is materialized, which cuts the lineage walk: the
  // reduceByKey below it must not appear at all (Spark's stage skipping).
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_TRUE(plan.stages[0].is_shuffle);
  EXPECT_TRUE(plan.stages[0].materialized);
  EXPECT_EQ(plan.NumPendingShuffleStages(), 0);
  EXPECT_EQ(plan.NumMaterializedShuffleStages(), 1);
  EXPECT_NE(replaced.Explain().find("materialized"), std::string::npos);
}

TEST(SchedulerPlanTest, MultiRootPlanUnionsLineages) {
  Context ctx(2);
  auto a = ToPair(ctx.Parallelize(MakePairs(20), 2))
               .ReduceByKey([](int x, int y) { return x + y; });
  auto b = ToPair(ctx.Parallelize(MakePairs(20), 2))
               .ReduceByKey([](int x, int y) { return x + y; });
  PhysicalPlan plan = ctx.BuildPlan(
      {a.AsRdd().node(), b.AsRdd().node()}, "evaluate");
  EXPECT_EQ(plan.NumPendingShuffleStages(), 2);
  // Result stage covers the partitions of every root.
  EXPECT_EQ(plan.stages.back().num_tasks,
            a.num_partitions() + b.num_partitions());
}

// ---- Execution ----

TEST(SchedulerExecTest, IndependentShufflesMaterializeConcurrently) {
  Context ctx(4);
  // Barrier probe: each side's map work waits (bounded) for the other
  // side to arrive. Only overlapping map stages can satisfy it.
  std::atomic<int> arrivals{0};
  std::atomic<bool> overlapped{false};
  auto probe = [&arrivals, &overlapped](int v) {
    arrivals.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrivals.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (arrivals.load() >= 2) overlapped.store(true);
    return v;
  };
  auto p = std::make_shared<HashPartitioner<uint64_t>>(2);
  auto a = ToPair(ctx.Parallelize(std::vector<KV>{{1, 10}}, 1).Map(
                      [probe](const KV& kv) {
                        return KV{kv.first, probe(kv.second)};
                      }))
               .ReduceByKey([](int x, int y) { return x + y; }, p);
  auto b = ToPair(ctx.Parallelize(std::vector<KV>{{2, 20}}, 1).Map(
                      [probe](const KV& kv) {
                        return KV{kv.first, probe(kv.second)};
                      }))
               .ReduceByKey([](int x, int y) { return x + y; }, p);
  auto joined = a.CoGroup(b);
  auto records = joined.AsRdd().Collect();
  EXPECT_TRUE(overlapped.load())
      << "the two parent shuffles did not overlap";
  EXPECT_GE(ctx.metrics().peak_concurrent_shuffles.load(), 2u);
  EXPECT_EQ(records.size(), 2u);
}

TEST(SchedulerExecTest, SerialModeMatchesConcurrentResults) {
  auto sum_by_key = [](Context* ctx, bool serial) {
    ctx->set_serial_shuffle_materialization(serial);
    auto p = std::make_shared<HashPartitioner<uint64_t>>(3);
    auto a = ToPair(ctx->Parallelize(MakePairs(60), 4))
                 .ReduceByKey([](int x, int y) { return x + y; }, p);
    auto b = ToPair(ctx->Parallelize(MakePairs(60), 4))
                 .ReduceByKey([](int x, int y) { return x + y; }, p);
    auto joined = a.Join(b);
    auto records = joined.AsRdd().Collect();
    std::sort(records.begin(), records.end());
    return records;
  };
  Context serial_ctx(4), concurrent_ctx(4);
  auto serial = sum_by_key(&serial_ctx, true);
  auto concurrent = sum_by_key(&concurrent_ctx, false);
  EXPECT_EQ(serial, concurrent);
  EXPECT_EQ(serial_ctx.metrics().peak_concurrent_shuffles.load(), 1u);
}

TEST(SchedulerExecTest, ActionsCountAsJobs) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(std::vector<int>{1, 2, 3, 4, 5, 6}, 3);
  EXPECT_EQ(ctx.metrics().jobs_run.load(), 0u);
  rdd.Count();
  EXPECT_EQ(ctx.metrics().jobs_run.load(), 1u);
  rdd.Collect();
  EXPECT_EQ(ctx.metrics().jobs_run.load(), 2u);
}

// ---- Per-stage observability ----

TEST(SchedulerStatsTest, ShuffleJobRecordsMapReduceAndResultStages) {
  Context ctx(2);
  auto pairs = ToPair(ctx.Parallelize(MakePairs(40), 4));
  auto reduced = pairs.ReduceByKey([](int a, int b) { return a + b; });
  reduced.AsRdd().Collect();

  const auto stats = ctx.metrics().StageStats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_NE(stats[0].name.find("reduceByKey/map"), std::string::npos);
  EXPECT_NE(stats[1].name.find("reduceByKey/reduce"), std::string::npos);
  EXPECT_EQ(stats[2].name, "collect");
  // One job: every stage carries the same (nonzero) job id.
  EXPECT_NE(stats[0].job_id, 0u);
  EXPECT_EQ(stats[0].job_id, stats[1].job_id);
  EXPECT_EQ(stats[1].job_id, stats[2].job_id);
  EXPECT_EQ(stats[0].num_tasks, 4);
  ASSERT_EQ(stats[0].tasks.size(), 4u);
  // Shuffle bytes are attributed to the map stage that wrote them.
  EXPECT_GT(stats[0].shuffle_bytes, 0u);
  EXPECT_EQ(stats[0].shuffle_records, 40u);
  EXPECT_EQ(stats[1].shuffle_bytes, 0u);
  for (const auto& s : stats) {
    EXPECT_GE(s.max_task_us, s.min_task_us) << s.name;
    EXPECT_GE(s.total_task_us, s.max_task_us) << s.name;
  }
}

TEST(SchedulerStatsTest, SkewAndStragglersDetected) {
  Context ctx(4);
  ctx.RunStage("skewed", 4, [](int i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 80 : 2));
  });
  const auto stats = ctx.metrics().StageStats();
  ASSERT_EQ(stats.size(), 1u);
  const StageStat& s = stats[0];
  EXPECT_EQ(s.name, "skewed");
  EXPECT_GE(s.max_task_us, 80000u);
  EXPECT_GT(s.skew_ratio, 1.5);
  EXPECT_EQ(s.num_stragglers, 1);
  EXPECT_EQ(ctx.metrics().task_duration_us.count(), 4u);
  EXPECT_NE(s.ToString().find("stragglers=1"), std::string::npos);
}

TEST(SchedulerStatsTest, DumpTraceWritesChromeTraceJson) {
  Context ctx(2);
  auto pairs = ToPair(ctx.Parallelize(MakePairs(30), 3));
  pairs.ReduceByKey([](int a, int b) { return a + b; }).AsRdd().Count();

  const std::string path =
      ::testing::TempDir() + "/spangle_scheduler_trace.json";
  ASSERT_TRUE(ctx.DumpTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("reduceByKey/map"), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"task\""), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(ctx.DumpTrace("/nonexistent-dir/trace.json"));
}

TEST(SchedulerStatsTest, StageStatsCapDropsInsteadOfGrowing) {
  Context ctx(2);
  for (int i = 0; i < 20; ++i) ctx.RunStage("tiny", 1, [](int) {});
  EXPECT_EQ(ctx.metrics().StageStats().size(), 20u);
  ctx.metrics().Reset();
  EXPECT_EQ(ctx.metrics().StageStats().size(), 0u);
}

// ---- Collect fast path ----

TEST(SchedulerCollectTest, CollectPartitionPtrsSharesCachedBlocks) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(std::vector<int>{1, 2, 3, 4, 5, 6}, 3);
  rdd.Cache();
  auto first = rdd.CollectPartitionPtrs();
  auto second = rdd.CollectPartitionPtrs();
  ASSERT_EQ(first.size(), 3u);
  for (size_t i = 0; i < first.size(); ++i) {
    // Cached partitions come back as the same block, not a copy.
    EXPECT_EQ(first[i].get(), second[i].get()) << "partition " << i;
  }
  EXPECT_EQ(rdd.Collect(), (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(rdd.Count(), 6u);
}

TEST(SchedulerCollectTest, CollectPartitionsStillCopies) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(std::vector<int>{7, 8, 9, 10}, 2);
  rdd.Cache();
  rdd.Count();
  auto parts = rdd.CollectPartitions();
  ASSERT_EQ(parts.size(), 2u);
  parts[0][0] = -1;  // mutating the copy must not corrupt the cache
  EXPECT_EQ(rdd.Collect(), (std::vector<int>{7, 8, 9, 10}));
}

}  // namespace
}  // namespace spangle
