// Serving-layer acceptance suite: fair-share dispatch order, memory-aware
// admission (queue, never OOM; typed rejection), cross-session result
// reuse, and per-tenant attribution into metrics / ExplainAnalyze.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/job_server.h"

namespace spangle {
namespace {

/// Tiny job body: returns `value` as a one-element payload.
JobServer::JobFn ValueJob(uint64_t value) {
  return [value]() -> Result<JobServer::Payload> {
    auto rows = std::make_shared<const std::vector<uint64_t>>(
        std::vector<uint64_t>{value});
    JobServer::Payload p;
    p.bytes = 64;
    p.data = std::shared_ptr<const void>(rows, rows.get());
    return p;
  };
}

TEST(JobServerTest, SingleJobRoundTrip) {
  Context ctx(4);
  JobServer server(&ctx);
  const auto session = server.OpenSession();

  std::vector<uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = ctx.Parallelize(data, 4).Map([](const uint64_t& x) {
    return x * 2 + 1;
  });
  const auto want = rdd.Collect();

  auto job = server.SubmitCollect(session, rdd);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto got = server.Collect<uint64_t>(*job);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, want);
  EXPECT_EQ(ctx.metrics().jobs_submitted.load(), 1u);
  EXPECT_EQ(ctx.metrics().jobs_served.load(), 1u);

  const auto stats = server.Stats(session);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  ASSERT_EQ(stats.engine_job_ids.size(), 1u);
}

TEST(JobServerTest, WeightedRoundRobinDispatchOrder) {
  // Paused server, one dispatcher, pre-filled queues: the drain order is
  // fully deterministic and must be exact weighted round-robin —
  // A(w2) A B(w1) C(w1), repeated.
  Context ctx(2);
  JobServer::Options opts;
  opts.dispatcher_threads = 1;
  opts.start_paused = true;
  JobServer server(&ctx, opts);

  JobServer::SessionOptions heavy;
  heavy.name = "A";
  heavy.weight = 2;
  const auto a = server.OpenSession(heavy);
  const auto b = server.OpenSession();
  const auto c = server.OpenSession();

  for (int k = 0; k < 4; ++k) ASSERT_TRUE(server.Submit(a, ValueJob(k)).ok());
  for (int k = 0; k < 2; ++k) ASSERT_TRUE(server.Submit(b, ValueJob(k)).ok());
  for (int k = 0; k < 2; ++k) ASSERT_TRUE(server.Submit(c, ValueJob(k)).ok());

  server.Resume();
  server.WaitAll();

  std::vector<JobServer::SessionId> order;
  for (const auto& [session, job] : server.DispatchLog()) {
    order.push_back(session);
  }
  const std::vector<JobServer::SessionId> want = {a, a, b, c, a, a, b, c};
  EXPECT_EQ(order, want) << "weighted round-robin drain order";
  EXPECT_EQ(server.Stats(a).completed, 4u);
  EXPECT_EQ(server.Stats(b).completed, 2u);
  EXPECT_EQ(server.Stats(c).completed, 2u);
}

TEST(JobServerTest, NoStarvationBoundedSkewUnderConcurrentDispatch) {
  // Picks are serialized under the server lock, so even with several
  // dispatchers the dispatch log follows the round-robin cursor while
  // every queue is non-empty: each window of num_sessions consecutive
  // dispatches contains every session exactly once. That is the
  // no-starvation / bounded-skew property, free of wall-clock flake.
  Context ctx(4);
  JobServer::Options opts;
  opts.dispatcher_threads = 3;
  opts.start_paused = true;
  JobServer server(&ctx, opts);

  constexpr int kSessions = 4;
  constexpr int kJobsEach = 12;
  std::vector<JobServer::SessionId> ids;
  for (int s = 0; s < kSessions; ++s) ids.push_back(server.OpenSession());
  for (int k = 0; k < kJobsEach; ++k) {
    for (const auto id : ids) {
      ASSERT_TRUE(server.Submit(id, ValueJob(k)).ok());
    }
  }
  server.Resume();
  server.WaitAll();

  const auto log = server.DispatchLog();
  ASSERT_EQ(log.size(), static_cast<size_t>(kSessions * kJobsEach));
  for (size_t w = 0; w + kSessions <= log.size(); w += kSessions) {
    std::unordered_set<JobServer::SessionId> seen;
    for (int i = 0; i < kSessions; ++i) seen.insert(log[w + i].first);
    EXPECT_EQ(seen.size(), static_cast<size_t>(kSessions))
        << "window at " << w << " starves a session";
  }
}

TEST(JobServerTest, AdmissionQueuesInsteadOfOvercommitting) {
  // 8 MB budget, 0.85 watermark => 6.8 MB admissible. Eight 3 MB jobs on
  // four dispatchers: admission must cap the in-flight footprint at two
  // jobs (6 MB committed; a third would overshoot), deferring the rest —
  // the queue-not-OOM contract. The concurrency cap comes from the byte
  // budget, not the dispatcher count.
  StorageOptions storage;
  storage.memory_budget_bytes = 8u << 20;
  Context ctx(4, 0, 0, storage);
  JobServer::Options opts;
  opts.dispatcher_threads = 4;
  JobServer server(&ctx, opts);
  const auto session = server.OpenSession();

  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::vector<JobServer::JobId> jobs;
  for (int k = 0; k < 8; ++k) {
    JobServer::SubmitOptions so;
    so.estimate_bytes = 3u << 20;
    auto job = server.Submit(
        session,
        [&running, &max_running]() -> Result<JobServer::Payload> {
          const int now = running.fetch_add(1) + 1;
          int seen = max_running.load();
          while (seen < now && !max_running.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
          running.fetch_sub(1);
          return JobServer::Payload{};
        },
        so);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    jobs.push_back(*job);
  }
  server.WaitAll();

  for (const auto job : jobs) EXPECT_TRUE(server.Wait(job).ok());
  EXPECT_LE(max_running.load(), 2) << "admission must cap in-flight bytes";
  EXPECT_GE(ctx.metrics().admission_queued.load(), 1u)
      << "later jobs must have waited on admission";
  EXPECT_EQ(ctx.metrics().admission_rejected.load(), 0u);
  EXPECT_EQ(ctx.metrics().jobs_served.load(), 8u);
  EXPECT_EQ(server.committed_bytes(), 0u) << "estimates must be released";
}

TEST(JobServerTest, ImpossibleEstimateRejectedTyped) {
  StorageOptions storage;
  storage.memory_budget_bytes = 4u << 20;
  Context ctx(2, 0, 0, storage);
  JobServer server(&ctx);
  const auto session = server.OpenSession();

  JobServer::SubmitOptions so;
  so.estimate_bytes = 8u << 20;  // can never fit, even running alone
  const auto job = server.Submit(session, ValueJob(1), so);
  ASSERT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsOutOfMemory()) << job.status().ToString();
  EXPECT_EQ(ctx.metrics().admission_rejected.load(), 1u);
  EXPECT_EQ(ctx.metrics().jobs_submitted.load(), 0u)
      << "a rejected job was never accepted";
  EXPECT_EQ(server.Stats(session).submitted, 0u);
}

TEST(JobServerTest, OversizedButPossibleJobForceAdmittedWhenIdle) {
  // Estimate above the watermark but under the budget: deferred while
  // anything runs, force-admitted once the server is idle. The progress
  // guarantee that keeps "queued" from meaning "wedged forever".
  StorageOptions storage;
  storage.memory_budget_bytes = 8u << 20;
  Context ctx(2, 0, 0, storage);
  JobServer::Options opts;
  opts.dispatcher_threads = 2;
  opts.admit_watermark = 0.5;  // 4 MB admissible
  JobServer server(&ctx, opts);
  const auto session = server.OpenSession();

  JobServer::SubmitOptions small;
  small.estimate_bytes = 1u << 20;
  auto blocker = server.Submit(
      session,
      []() -> Result<JobServer::Payload> {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return JobServer::Payload{};
      },
      small);
  ASSERT_TRUE(blocker.ok());

  JobServer::SubmitOptions big;
  big.estimate_bytes = 6u << 20;  // watermark says no, budget says maybe
  const auto oversized = server.Submit(session, ValueJob(7), big);
  ASSERT_TRUE(oversized.ok());
  EXPECT_TRUE(server.Wait(*oversized).ok())
      << "the oversized job must eventually run alone";
  server.WaitAll();
  EXPECT_EQ(server.Stats(session).completed, 2u);
}

TEST(JobServerTest, UnknownSessionRejected) {
  Context ctx(2);
  JobServer server(&ctx);
  const auto job = server.Submit(99, ValueJob(1));
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
}

TEST(JobServerTest, ShutdownFailsUndispatchedJobs) {
  Context ctx(2);
  JobServer::Options opts;
  opts.start_paused = true;
  JobServer server(&ctx, opts);
  const auto session = server.OpenSession();
  const auto job = server.Submit(session, ValueJob(1));
  ASSERT_TRUE(job.ok());
  server.Shutdown();
  const Status st = server.Wait(*job);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
      << "queued jobs must fail typed, not hang";
  const auto refused = server.Submit(session, ValueJob(2));
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JobServerTest, ResultCacheHitsAcrossSessions) {
  Context ctx(4);
  JobServer::Options opts;
  opts.result_cache_bytes = 4u << 20;
  JobServer server(&ctx, opts);
  const auto producer = server.OpenSession();
  const auto consumer = server.OpenSession();

  std::vector<uint64_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  auto make_plan = [&ctx, &data] {
    return ctx.Parallelize(data, 4)
        .WithDigestSeed(42)
        .Map([](const uint64_t& x) { return x * x; });
  };
  auto plan_a = make_plan();
  auto plan_b = make_plan();
  ASSERT_EQ(plan_a.LineageDigest(), plan_b.LineageDigest());
  ASSERT_NE(plan_a.LineageDigest(), 0u);

  auto first = server.SubmitCollect(producer, plan_a);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(server.Wait(*first).ok());
  auto second = server.SubmitCollect(consumer, plan_b);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(server.Wait(*second).ok());

  auto got_a = server.Collect<uint64_t>(*first);
  auto got_b = server.Collect<uint64_t>(*second);
  ASSERT_TRUE(got_a.ok() && got_b.ok());
  EXPECT_EQ(**got_a, **got_b) << "cache hit must be bit-identical";
  EXPECT_EQ(got_a->get(), got_b->get()) << "hit shares the payload";

  EXPECT_EQ(ctx.metrics().result_cache_hits.load(), 1u);
  EXPECT_EQ(ctx.metrics().result_cache_misses.load(), 1u);
  EXPECT_TRUE(server.Info(*second).cache_hit);
  EXPECT_EQ(server.Stats(consumer).cache_hits, 1u);
  EXPECT_TRUE(server.Stats(consumer).engine_job_ids.empty())
      << "a cache hit runs no engine job";
  EXPECT_EQ(server.Stats(producer).cache_hits, 0u);
}

TEST(JobServerTest, UncacheablePlanNeverHits) {
  Context ctx(2);
  JobServer::Options opts;
  opts.result_cache_bytes = 4u << 20;
  JobServer server(&ctx, opts);
  const auto session = server.OpenSession();

  std::vector<uint64_t> data(64, 3);
  // No WithDigestSeed: the source is content-opaque, digest 0, cache
  // bypassed entirely (not even a miss is counted).
  auto plan = ctx.Parallelize(data, 2);
  EXPECT_EQ(plan.LineageDigest(), 0u);
  for (int k = 0; k < 2; ++k) {
    auto job = server.SubmitCollect(session, plan);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(server.Wait(*job).ok());
  }
  EXPECT_EQ(ctx.metrics().result_cache_hits.load(), 0u);
  EXPECT_EQ(ctx.metrics().result_cache_misses.load(), 0u);
}

TEST(JobServerTest, PerTenantStagesAttributedByEngineJobId) {
  Context ctx(4);
  JobServer server(&ctx);
  const auto alice = server.OpenSession();
  const auto bob = server.OpenSession();

  std::vector<std::pair<uint64_t, int>> pairs;
  for (int i = 0; i < 200; ++i) pairs.emplace_back(i % 16, i);
  auto shuffle_plan = ToPair<uint64_t, int>(ctx.Parallelize(pairs, 4))
                          .ReduceByKey([](const int& x, const int& y) {
                            return x + y;
                          })
                          .AsRdd();
  std::vector<uint64_t> flat(100, 5);
  auto map_plan =
      ctx.Parallelize(flat, 4).Map([](const uint64_t& x) { return x + 1; });

  auto a_job = server.SubmitCollect(alice, shuffle_plan);
  auto b_job = server.SubmitCollect(bob, map_plan);
  ASSERT_TRUE(a_job.ok() && b_job.ok());
  server.WaitAll();

  const auto a_ids = server.Stats(alice).engine_job_ids;
  const auto b_ids = server.Stats(bob).engine_job_ids;
  ASSERT_EQ(a_ids.size(), 1u);
  ASSERT_EQ(b_ids.size(), 1u);
  EXPECT_NE(a_ids[0], b_ids[0]) << "each served job binds a fresh job id";

  bool saw_alice_shuffle = false;
  for (const auto& stage : ctx.metrics().StageStats()) {
    if (stage.name.find("reduceByKey") != std::string::npos) {
      EXPECT_EQ(stage.job_id, a_ids[0])
          << "shuffle stages must carry the owning tenant's job id";
      saw_alice_shuffle = true;
    }
  }
  EXPECT_TRUE(saw_alice_shuffle);
}

TEST(JobServerTest, ServingCountersVisibleInExplainAnalyzeAndExports) {
  StorageOptions storage;
  storage.memory_budget_bytes = 8u << 20;
  Context ctx(4, 0, 0, storage);
  JobServer::Options opts;
  // More dispatchers than admission allows in flight, so the deferral
  // below is forced by the byte budget, not by thread starvation.
  opts.dispatcher_threads = 4;
  opts.result_cache_bytes = 2u << 20;
  JobServer server(&ctx, opts);
  const auto session = server.OpenSession();

  ProfiledRun window(&ctx, {}, "serving-window");

  // One cacheable plan served twice (miss + hit) ...
  std::vector<uint64_t> data(128);
  std::iota(data.begin(), data.end(), 0);
  auto plan = ctx.Parallelize(data, 4).WithDigestSeed(7).Map(
      [](const uint64_t& x) { return x ^ 0xff; });
  for (int k = 0; k < 2; ++k) {
    auto job = server.SubmitCollect(session, plan);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(server.Wait(*job).ok());
  }
  // ... and enough parallel 3 MB jobs to force an admission deferral.
  for (int k = 0; k < 4; ++k) {
    JobServer::SubmitOptions so;
    so.estimate_bytes = 3u << 20;
    ASSERT_TRUE(server
                    .Submit(session,
                            []() -> Result<JobServer::Payload> {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(20));
                              return JobServer::Payload{};
                            },
                            so)
                    .ok());
  }
  server.WaitAll();

  const AnalyzedPlan plan_report = window.Finish();
  EXPECT_EQ(plan_report.metrics.Value("result_cache_hits"), 1u);
  EXPECT_GE(plan_report.metrics.Value("result_cache_misses"), 1u);
  EXPECT_GE(plan_report.metrics.Value("admission_queued"), 1u);
  EXPECT_NE(plan_report.ToString().find("serving:"), std::string::npos);

  const std::string json = ctx.MetricsJson();
  for (const char* name :
       {"jobs_submitted", "jobs_served", "admission_queued",
        "admission_rejected", "result_cache_hits", "result_cache_misses",
        "result_cache_bytes"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  const std::string prom = ctx.MetricsPrometheus();
  EXPECT_NE(prom.find("# TYPE spangle_admission_queued counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE spangle_result_cache_bytes gauge"),
            std::string::npos);
}

TEST(JobServerTest, PauseHoldsDispatchResumeDrains) {
  Context ctx(2);
  JobServer server(&ctx);
  const auto session = server.OpenSession();
  server.Pause();
  auto job = server.Submit(session, ValueJob(9));
  ASSERT_TRUE(job.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(server.Info(*job).done) << "paused server must not dispatch";
  server.Resume();
  EXPECT_TRUE(server.Wait(*job).ok());
}

}  // namespace
}  // namespace spangle
