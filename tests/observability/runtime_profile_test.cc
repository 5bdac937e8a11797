#include "engine/runtime_profile.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "engine/engine.h"

namespace spangle {
namespace {

TEST(RuntimeProfileTest, ExplainAnalyzeRowCountsMatchCollectGroundTruth) {
  Context ctx(4);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = ctx.Parallelize(data, 4)
                 .Map([](int x) { return x * 2; })
                 .Filter([](int x) { return x % 4 == 0; });

  // Ground truth from an independent execution.
  const size_t expected = rdd.Collect().size();
  ASSERT_EQ(expected, 50u);

  AnalyzedPlan plan = rdd.ExplainAnalyzePlan("collect");
  const AnalyzedNode* filter = plan.Find("filter");
  const AnalyzedNode* map = plan.Find("map");
  const AnalyzedNode* source = plan.Find("source");
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(map, nullptr);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(filter->actuals.rows_out, expected);
  EXPECT_EQ(filter->actuals.rows_in, 100u);
  EXPECT_EQ(map->actuals.rows_out, 100u);
  EXPECT_EQ(map->actuals.rows_in, 100u);
  EXPECT_EQ(source->actuals.rows_out, 100u);
  EXPECT_EQ(filter->actuals.invocations, 4u);
  EXPECT_GT(filter->actuals.bytes_out, 0u);
  EXPECT_EQ(plan.totals.rows_out, 250u);  // 100 + 100 + 50
  EXPECT_EQ(plan.metrics.Value("stages_run"), 1u);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0].name, "collect");

  // The rendering mentions the plan structure and the actuals.
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("filter"), std::string::npos);
  EXPECT_NE(s.find("rows_out=50"), std::string::npos);
}

TEST(RuntimeProfileTest, SnapshotDiffScopesToOneRun) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(std::vector<int>(40, 1), 4);
  // Execute a few times first; the analyze run must only report itself.
  rdd.Count();
  rdd.Count();
  AnalyzedPlan plan = rdd.ExplainAnalyzePlan("count");
  const AnalyzedNode* source = plan.Find("source");
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->actuals.rows_out, 40u);
  EXPECT_EQ(source->actuals.invocations, 4u);
  EXPECT_EQ(plan.metrics.Value("stages_run"), 1u);
  ASSERT_EQ(plan.stages.size(), 1u);
}

TEST(RuntimeProfileTest, CachedLineageReportsCacheHitsNotRecompute) {
  Context ctx(2);
  auto mapped = ctx.Parallelize(std::vector<int>(30, 7), 3)
                    .Map([](int x) { return x + 1; });
  mapped.Cache();
  mapped.Count();  // populate the cache
  AnalyzedPlan plan = mapped.ExplainAnalyzePlan("count");
  const AnalyzedNode* map = plan.Find("map");
  const AnalyzedNode* source = plan.Find("source");
  ASSERT_NE(map, nullptr);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(map->actuals.cache_hits, 3u);
  EXPECT_EQ(map->actuals.rows_out, 30u);
  // Served from the block store: the parent never ran this query.
  EXPECT_EQ(source->actuals.invocations, 0u);
  EXPECT_EQ(source->actuals.rows_out, 0u);
}

TEST(RuntimeProfileTest, ShuffleQueryCountsShuffleStages) {
  Context ctx(2);
  std::vector<std::pair<int, int>> recs;
  for (int i = 0; i < 60; ++i) recs.emplace_back(i % 6, i);
  auto grouped = ToPair<int, int>(ctx.Parallelize(recs, 4))
                     .GroupByKey(std::make_shared<HashPartitioner<int>>(3));
  AnalyzedPlan plan = grouped.ExplainAnalyzePlan("collect");
  // GroupByKey is a narrow grouping above a partitionBy shuffle.
  const AnalyzedNode* group = plan.Find("groupByKey");
  const AnalyzedNode* shuffle = plan.Find("partitionBy");
  ASSERT_NE(group, nullptr);
  ASSERT_NE(shuffle, nullptr);
  EXPECT_FALSE(group->is_shuffle);
  EXPECT_TRUE(shuffle->is_shuffle);
  EXPECT_EQ(group->actuals.rows_out, 6u);  // one record per key
  EXPECT_EQ(group->actuals.rows_in, 60u);
  EXPECT_GE(plan.metrics.Value("stages_run"), 2u);  // shuffle, then collect
}

TEST(RuntimeProfileTest, CounterSamplesAccumulateDuringRuns) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(std::vector<int>(20, 1), 4);
  rdd.Count();
  const auto samples = ctx.profile().CounterSamples();
  ASSERT_GE(samples.size(), 2u);  // stage start + stage end
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_us, samples[i - 1].t_us);
  }
}

TEST(RuntimeProfileTest, OperatorScopeIsInertWithoutThreadProfile) {
  // Driver-side code paths construct scopes with no bound profile; they
  // must not touch any store.
  ASSERT_EQ(prof::ThreadProfile(), nullptr);
  NodeProfile np;
  {
    prof::OperatorScope scope(&np);
    EXPECT_FALSE(scope.active());
    scope.FinishComputed(10, 100);
  }
  EXPECT_EQ(np.Snapshot().invocations, 0u);
  EXPECT_EQ(np.Snapshot().rows_out, 0u);
  prof::RecordChunkBuilt(0, 100, 50);      // no-op, must not crash
  prof::RecordModeTransition(0, 1);        // no-op
  prof::RecordMaskDensity(10, 100);        // no-op
}

TEST(RuntimeProfileTest, SelfTimeExcludesChildTime) {
  EngineMetrics metrics;
  RuntimeProfile profile(&metrics);
  prof::ScopedThreadProfile bind(&profile);
  NodeProfile outer_np;
  NodeProfile inner_np;
  {
    prof::OperatorScope outer(&outer_np);
    { prof::OperatorScope inner(&inner_np); }
    outer.FinishComputed(10, 100);
  }
  const auto outer_snap = outer_np.Snapshot();
  const auto inner_snap = inner_np.Snapshot();
  EXPECT_EQ(outer_snap.invocations, 1u);
  EXPECT_EQ(inner_snap.invocations, 1u);
  EXPECT_EQ(outer_snap.rows_out, 10u);
  EXPECT_EQ(outer_snap.bytes_out, 100u);
  // The child charged its rows (0) and time to the parent; self time of
  // the parent cannot exceed total minus the child's total.
  EXPECT_GE(outer_snap.rows_in, inner_snap.rows_out);
}

}  // namespace
}  // namespace spangle
