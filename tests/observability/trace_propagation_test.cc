// Distributed-tracing acceptance suite: a DISTRIBUTED context must
// produce ONE merged Chrome trace where daemon serve spans carry the
// driver's trace_id (propagated over the SPN1 data-plane messages), with
// a pid lane per daemon; a daemon SIGKILLed mid-run must not erase the
// spans the stats pull plane already drained from it. Plus SpanRecorder
// unit coverage (bounded ring, drop counter, id-space partitioning) and
// the fleet-labeled metric exports.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/trace.h"
#include "net/executor_fleet.h"

namespace spangle {
namespace {

DeploymentOptions Distributed(int num_executors = 2,
                              int heartbeat_interval_ms = 0,
                              int heartbeat_miss_limit = 3) {
  DeploymentOptions d;
  d.mode = DeploymentMode::kDistributed;
  d.distributed.num_executors = num_executors;
  d.distributed.heartbeat_interval_ms = heartbeat_interval_ms;
  d.distributed.heartbeat_miss_limit = heartbeat_miss_limit;
  return d;
}

/// Runs a small shuffle workload so both the put (materialize) and fetch
/// (result stage) data-plane paths fire.
void RunShuffleJob(Context* ctx, int n = 400, int buckets = 13) {
  std::vector<int> data(n);
  for (int i = 0; i < n; ++i) data[i] = i;
  auto counts =
      PairRdd<int, int>(ctx->Parallelize(std::move(data)).Map([buckets](
                            const int& v) {
        return std::pair<int, int>(v % buckets, 1);
      })).ReduceByKey([](const int& a, const int& b) { return a + b; });
  ASSERT_EQ(counts.Collect().size(), static_cast<size_t>(buckets));
}

std::string DumpTraceToString(const Context& ctx) {
  const std::string path =
      ::testing::TempDir() + "spangle_trace_" +
      std::to_string(::getpid()) + "_" +
      std::to_string(reinterpret_cast<uintptr_t>(&ctx) & 0xffff) + ".json";
  EXPECT_TRUE(ctx.DumpTrace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

/// Every trace event is written on its own line; returns the lines that
/// contain `needle`.
std::vector<std::string> LinesContaining(const std::string& text,
                                         const std::string& needle) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) out.push_back(line);
  }
  return out;
}

uint64_t ExtractU64(const std::string& line, const std::string& key) {
  const size_t pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + key.size() + 3, nullptr, 10);
}

// ---------------------------------------------------------------------
// SpanRecorder unit coverage.

TEST(SpanRecorderTest, BoundedRingDropsOldestAndCounts) {
  SpanRecorder rec(/*capacity=*/4);
  for (uint64_t i = 1; i <= 10; ++i) {
    TraceSpan s;
    s.trace_id = i;
    s.span_id = rec.NextSpanId();
    rec.Record(std::move(s));
  }
  EXPECT_EQ(rec.dropped(), 6u);
  const auto spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().trace_id, 7u);  // oldest surviving
  EXPECT_EQ(spans.back().trace_id, 10u);
  // Drain empties the ring but not the drop counter.
  EXPECT_EQ(rec.Drain().size(), 4u);
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(SpanRecorderTest, IdBasePartitionsSpanIdSpace) {
  // Driver base 0, daemon N base (N+1)<<48: ids can never collide.
  SpanRecorder driver;
  SpanRecorder daemon0(SpanRecorder::kDefaultCapacity, 1ULL << 48);
  SpanRecorder daemon1(SpanRecorder::kDefaultCapacity, 2ULL << 48);
  EXPECT_LT(driver.NextSpanId(), 1ULL << 48);
  EXPECT_GE(daemon0.NextSpanId(), 1ULL << 48);
  EXPECT_LT(daemon0.NextSpanId(), 2ULL << 48);
  EXPECT_GE(daemon1.NextSpanId(), 2ULL << 48);
}

TEST(TraceContextTest, ScopedContextRestoresPrevious) {
  EXPECT_EQ(trace::Current().trace_id, 0u);
  {
    TraceContext outer;
    outer.trace_id = 5;
    outer.span_id = 6;
    trace::ScopedContext a(outer);
    EXPECT_EQ(trace::Current().trace_id, 5u);
    {
      TraceContext inner;
      inner.trace_id = 5;
      inner.span_id = 7;
      inner.parent_span_id = 6;
      trace::ScopedContext b(inner);
      EXPECT_EQ(trace::Current().span_id, 7u);
    }
    EXPECT_EQ(trace::Current().span_id, 6u);
  }
  EXPECT_EQ(trace::Current().trace_id, 0u);
}

// ---------------------------------------------------------------------
// LOCAL mode: tracing machinery is inert but harmless.

TEST(TracePropagationTest, LocalModeTraceHasNoRpcLanes) {
  Context ctx(2, 4);
  RunShuffleJob(&ctx);
  const std::string trace = DumpTraceToString(ctx);
  EXPECT_TRUE(LinesContaining(trace, "\"cat\":\"rpc\"").empty());
  EXPECT_TRUE(LinesContaining(trace, "executord").empty());
  // The stage/task lanes are still there.
  EXPECT_FALSE(LinesContaining(trace, "\"cat\":\"stage\"").empty());
}

// ---------------------------------------------------------------------
// DISTRIBUTED mode: the acceptance criteria.

TEST(TracePropagationTest, MergedTraceHasDriverAndDaemonLanes) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  RunShuffleJob(&ctx);
  const std::string trace = DumpTraceToString(ctx);

  // One merged file: driver rpc lane plus one pid lane per daemon.
  EXPECT_FALSE(LinesContaining(trace, "\"name\":\"driver rpc\"").empty());
  EXPECT_FALSE(LinesContaining(trace, "\"name\":\"executord 0\"").empty());
  EXPECT_FALSE(LinesContaining(trace, "\"name\":\"executord 1\"").empty());

  // Driver client spans exist for both data-plane directions.
  EXPECT_FALSE(LinesContaining(trace, "\"put_block\"").empty());
  EXPECT_FALSE(LinesContaining(trace, "\"fetch_block\"").empty());

  // Daemon serve spans were pulled back and merged.
  const auto serves = LinesContaining(trace, "\"serve_put\"");
  ASSERT_FALSE(serves.empty());

  // Every daemon serve span carries a driver-minted trace id — the ids
  // RunJob uses are the engine job ids, which StageStats also record.
  std::vector<uint64_t> job_ids;
  for (const StageStat& s : ctx.metrics().StageStats()) {
    job_ids.push_back(s.job_id);
  }
  for (const std::string& line : serves) {
    const uint64_t trace_id = ExtractU64(line, "trace_id");
    EXPECT_NE(trace_id, 0u) << line;
    EXPECT_NE(std::find(job_ids.begin(), job_ids.end(), trace_id),
              job_ids.end())
        << "serve span's trace_id " << trace_id
        << " matches no driver job id: " << line;
    // Daemon span ids live in the daemon's partition of the id space.
    EXPECT_GE(ExtractU64(line, "span_id"), 1ULL << 48) << line;
    // The parent is a driver-minted client span id.
    EXPECT_LT(ExtractU64(line, "parent_span_id"), 1ULL << 48) << line;
  }

  // Flow events tie driver client spans to daemon serve spans.
  EXPECT_FALSE(LinesContaining(trace, "\"ph\":\"s\"").empty());
  EXPECT_FALSE(LinesContaining(trace, "\"ph\":\"f\"").empty());
}

TEST(TracePropagationTest, PutBlockSpansParentUnderReduceTaskSpans) {
  // Reduce tasks commit their own partitions, so every put_block client
  // span must hang off the span of the reduce task that issued it — not
  // off the job root. The chaos hook runs inside each task attempt with
  // the task's trace context bound, which is how the test learns the task
  // span ids.
  Context ctx(2, 4, 0, {}, Distributed(2));
  std::mutex mu;
  std::map<uint64_t, std::string> task_stage;  // task span id -> stage
  auto chaos = std::make_shared<ChaosPolicy>();
  chaos->delay_us = [&](const ChaosTaskInfo& info) -> uint64_t {
    std::lock_guard<std::mutex> lock(mu);
    task_stage[trace::Current().span_id] = info.stage;
    return 0;
  };
  ctx.set_chaos_policy(chaos);
  RunShuffleJob(&ctx);
  ctx.set_chaos_policy(nullptr);

  size_t puts = 0;
  for (const TraceSpan& s : ctx.trace_spans().Snapshot()) {
    if (s.name != "put_block") continue;
    ++puts;
    std::lock_guard<std::mutex> lock(mu);
    const auto it = task_stage.find(s.parent_span_id);
    ASSERT_NE(it, task_stage.end())
        << "put_block span " << s.span_id << " has parent "
        << s.parent_span_id << ", which is no task span";
    EXPECT_EQ(it->second, "reduceByKey/reduce");
  }
  EXPECT_GT(puts, 0u);
}

TEST(TracePropagationTest, KilledDaemonsDrainedSpansSurviveInTrace) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  // Job 1 records serve spans on both daemons; drain them to the driver.
  RunShuffleJob(&ctx);
  ctx.fleet()->ScrapeAll();
  const auto before = ctx.fleet()->CollectedSpans();
  bool victim_had_spans = false;
  for (const TraceSpan& s : before) victim_had_spans |= s.executor == 1;
  ASSERT_TRUE(victim_had_spans);

  // SIGKILL daemon 1 mid-run of job 2 (chaos hook: a real process
  // death). The job must still complete and the merged trace must still
  // contain the victim's already-drained spans.
  auto chaos = std::make_shared<ChaosPolicy>();
  std::atomic<int> kills{0};  // predicate runs on concurrent task threads
  chaos->fail_executor = [&kills](const ChaosTaskInfo& info) {
    (void)info;
    return kills.fetch_add(1) == 0 ? 1 : -1;
  };
  ctx.set_chaos_policy(chaos);
  RunShuffleJob(&ctx);
  ctx.set_chaos_policy(nullptr);

  const std::string trace = DumpTraceToString(ctx);
  const auto serves = LinesContaining(trace, "\"serve_");
  size_t victim_spans = 0;
  for (const std::string& line : serves) {
    if (line.find("\"pid\":11") != std::string::npos) ++victim_spans;
  }
  EXPECT_GT(victim_spans, 0u)
      << "the killed daemon's drained spans vanished from the merged trace";
  EXPECT_FALSE(LinesContaining(trace, "\"name\":\"executord 1\"").empty());
}

// ---------------------------------------------------------------------
// Satellite: heartbeat gauges + RTT histogram + clock offset.

TEST(FleetStatsTest, HeartbeatSurfacesGaugesRttAndClockOffset) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  RunShuffleJob(&ctx);
  for (int w = 0; w < 2; ++w) {
    ASSERT_TRUE(ctx.fleet()->Heartbeat(w).ok());
  }
  EXPECT_GT(ctx.metrics().heartbeat_rtt_us.count(), 0u);

  const auto stats = ctx.fleet()->ExecutorStats();
  ASSERT_EQ(stats.size(), 2u);
  bool any_blocks = false;
  for (const auto& s : stats) {
    any_blocks |= s.blocks_held > 0;
    // Daemon clocks start at daemon spawn, the driver epoch at context
    // construction: the daemon clock must read behind the driver's.
    EXPECT_LE(s.clock_offset_us, 0);
  }
  EXPECT_TRUE(any_blocks) << "no daemon reported resident shuffle blocks";
}

TEST(FleetStatsTest, ScrapeStatsPullsDaemonRegistrySnapshot) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  RunShuffleJob(&ctx);
  ctx.fleet()->ScrapeAll();
  const auto stats = ctx.fleet()->ExecutorStats();
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_TRUE(s.scraped);
    ASSERT_FALSE(s.metric_names.empty());
    ASSERT_EQ(s.metric_names.size(), s.metric_values.size());
    ASSERT_EQ(s.metric_names.size(), s.metric_kinds.size());
    // The daemon registry's bytes_cached gauge must be present (the
    // daemons hold this job's shuffle output).
    bool found = false;
    for (size_t i = 0; i < s.metric_names.size(); ++i) {
      if (s.metric_names[i] == "bytes_cached") found = true;
    }
    EXPECT_TRUE(found);
  }
}

// ---------------------------------------------------------------------
// Satellite: fleet-labeled exports.

TEST(FleetExportTest, JsonAndPrometheusCarryExecutorLabels) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  RunShuffleJob(&ctx);

  const std::string json = ctx.MetricsJson();
  EXPECT_NE(json.find("\"fleet\":["), std::string::npos);
  EXPECT_NE(json.find("\"executor\":0"), std::string::npos);
  EXPECT_NE(json.find("\"executor\":1"), std::string::npos);
  EXPECT_NE(json.find("\"clock_offset_us\":"), std::string::npos);

  const std::string prom = ctx.MetricsPrometheus();
  EXPECT_NE(prom.find("spangle_executor_blocks_held{executor=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("spangle_executor_blocks_held{executor=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("spangle_executor_daemon_bytes_cached{executor=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE spangle_executor_clock_offset_us gauge"),
            std::string::npos);
}

TEST(FleetExportTest, ExplainAnalyzeReportsFleetLine) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  std::vector<int> data(200);
  for (int i = 0; i < 200; ++i) data[i] = i;
  auto rdd = ctx.Parallelize(std::move(data));
  auto pairs = PairRdd<int, int>(rdd.Map([](const int& v) {
                 return std::pair<int, int>(v % 7, 1);
               })).ReduceByKey([](const int& a, const int& b) { return a + b; });
  const AnalyzedPlan plan = pairs.ExplainAnalyzePlan();
  EXPECT_GT(plan.metrics.Value("rpc_roundtrips"), 0u);
  EXPECT_NE(plan.ToString().find("fleet: rpc_roundtrips="),
            std::string::npos);
}

}  // namespace
}  // namespace spangle
