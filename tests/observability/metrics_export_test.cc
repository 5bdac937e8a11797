#include "engine/metrics_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "engine/engine.h"
#include "json_checker.h"

namespace spangle {
namespace {

using spangle::testing::JsonChecker;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(MetricsExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01" "b", 3)), "a\\u0001b");
}

TEST(MetricsExportTest, MetricsJsonIsWellFormedAndComplete) {
  Context ctx(2);
  // Exercise a shuffle so counters and histograms are non-trivial.
  std::vector<std::pair<int, int>> recs;
  for (int i = 0; i < 50; ++i) recs.emplace_back(i % 5, i);
  ToPair<int, int>(ctx.Parallelize(recs, 4))
      .GroupByKey(std::make_shared<HashPartitioner<int>>(2))
      .AsRdd()
      .Count();

  const std::string json = ctx.MetricsJson();
  std::string err;
  ASSERT_TRUE(JsonChecker::Valid(json, &err)) << err << "\n" << json;
  // Every registered metric appears by name.
  for (const MetricDef& def : ctx.metrics().registry().metrics()) {
    EXPECT_NE(json.find(std::string("\"").append(def.name).append("\"")),
              std::string::npos)
        << def.name;
  }
  EXPECT_NE(json.find("\"stage_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\""), std::string::npos);
}

TEST(MetricsExportTest, DumpMetricsJsonWritesParseableFile) {
  Context ctx(2);
  ctx.Parallelize(std::vector<int>(10, 1), 2).Count();
  const std::string path = ::testing::TempDir() + "/spangle_metrics.json";
  ASSERT_TRUE(ctx.DumpMetricsJson(path));
  const std::string body = ReadFile(path);
  std::string err;
  EXPECT_TRUE(JsonChecker::Valid(body, &err)) << err;
  std::remove(path.c_str());
}

TEST(MetricsExportTest, PrometheusExpositionFormat) {
  Context ctx(2);
  ctx.Parallelize(std::vector<int>(10, 1), 2).Count();
  const std::string text = ctx.MetricsPrometheus();
  EXPECT_NE(text.find("# HELP spangle_tasks_run"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spangle_tasks_run counter"), std::string::npos);
  EXPECT_NE(text.find("spangle_tasks_run 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spangle_bytes_cached gauge"),
            std::string::npos);
  // Histograms expose cumulative buckets, +Inf, _sum, and _count.
  EXPECT_NE(text.find("# TYPE spangle_task_duration_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("spangle_task_duration_us_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(text.find("spangle_task_duration_us_sum"), std::string::npos);
  EXPECT_NE(text.find("spangle_task_duration_us_count 2"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  // Cumulative bucket counts are non-decreasing and end at _count.
  std::istringstream lines(text);
  std::string line;
  uint64_t prev = 0;
  uint64_t last_bucket = 0;
  while (std::getline(lines, line)) {
    const std::string needle = "spangle_task_duration_us_bucket{";
    if (line.compare(0, needle.size(), needle) == 0) {
      const size_t space = line.rfind(' ');
      const uint64_t v = std::stoull(line.substr(space + 1));
      EXPECT_GE(v, prev);
      prev = v;
      last_bucket = v;
    }
  }
  EXPECT_EQ(last_bucket, ctx.metrics().task_duration_us.count());
}

TEST(MetricsExportTest, DumpTraceIsValidJsonWithCounterTracks) {
  Context ctx(2);
  std::vector<std::pair<int, int>> recs;
  for (int i = 0; i < 40; ++i) recs.emplace_back(i % 4, i);
  auto grouped = ToPair<int, int>(ctx.Parallelize(recs, 4))
                     .GroupByKey(std::make_shared<HashPartitioner<int>>(2));
  grouped.AsRdd().Count();
  const std::string path = ::testing::TempDir() + "/spangle_trace.json";
  ASSERT_TRUE(ctx.DumpTrace(path));
  const std::string body = ReadFile(path);
  std::string err;
  ASSERT_TRUE(JsonChecker::Valid(body, &err)) << err;
  // Duration events for tasks, plus the pid-2 counter tracks.
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(body.find("\"bytes_cached\""), std::string::npos);
  EXPECT_NE(body.find("\"shuffle_bytes\""), std::string::npos);
  EXPECT_NE(body.find("\"concurrent_shuffles\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsExportTest, JsonHistogramBucketsSumToCount) {
  // Cross-check the JSON payload against the live histogram: the
  // bucket_counts array must account for every observation.
  Context ctx(2);
  ctx.Parallelize(std::vector<int>(30, 1), 6).Count();
  const Histogram& h = ctx.metrics().task_duration_us;
  uint64_t total = 0;
  for (uint64_t c : h.BucketCounts()) total += c;
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(h.count(), 6u);
}

}  // namespace
}  // namespace spangle
