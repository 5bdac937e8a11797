// DISTRIBUTED-mode integration suite: a Context backed by real
// spangle_executord child processes on loopback TCP. The differential
// oracle is LOCAL mode — both modes run the task bodies in the driver,
// only the shuffle data plane moves, so every workload must produce
// bit-identical results. The chaos cases SIGKILL a live daemon mid-job
// (via ChaosPolicy and via a raw kill(2)) and require the job to finish
// correctly through lineage re-planning.
//
// Kill targets derive from SPANGLE_CHAOS_SEED (default 1234) so
// scripts/stress.sh can rotate which daemon dies.

#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "codec/columnar.h"
#include "common/random.h"
#include "engine/engine.h"
#include "matrix/block_matrix.h"
#include "ml/pagerank.h"
#include "ops/overlap.h"
#include "net/executor_fleet.h"
#include "net/frame.h"
#include "net/message.h"
#include "tests/engine/first_seen_order.h"
#include "workload/graph_gen.h"

namespace spangle {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("SPANGLE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1234;
}

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

/// WordCount-ish pipeline: ints -> (key, 1) -> reduceByKey -> sorted map.
std::map<int, int> CountByBucket(Context* ctx, int n, int buckets) {
  std::vector<int> data(n);
  for (int i = 0; i < n; ++i) data[i] = i;
  auto pairs = ctx->Parallelize(std::move(data))
                   .Map([buckets](const int& v) {
                     return std::pair<int, int>(v % buckets, 1);
                   });
  auto counts = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  std::map<int, int> out;
  for (const auto& [k, v] : counts.Collect()) out[k] = v;
  return out;
}

TEST(DistributedModeTest, FleetSpawnsAndShutsDownCleanly) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  ASSERT_TRUE(ctx.distributed());
  ASSERT_NE(ctx.fleet(), nullptr);
  EXPECT_EQ(ctx.fleet()->num_executors(), 2);
  EXPECT_GT(ctx.fleet()->executor_pid(0), 0);
  EXPECT_GT(ctx.fleet()->executor_pid(1), 0);
  EXPECT_NE(ctx.fleet()->executor_pid(0), ctx.fleet()->executor_pid(1));
}

TEST(DistributedModeTest, ReduceByKeyMatchesLocalBitExactly) {
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  const auto want = CountByBucket(&local, 1000, 17);
  const auto got = CountByBucket(&dist, 1000, 17);
  EXPECT_EQ(got, want);
  // The shuffle data plane actually went over the wire.
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
  EXPECT_GT(dist.metrics().rpc_roundtrips.load(), 0u);
  EXPECT_GT(dist.metrics().rpc_bytes_sent.load(), 0u);
  EXPECT_GT(dist.metrics().rpc_bytes_received.load(), 0u);
  EXPECT_EQ(local.metrics().remote_shuffle_fetches.load(), 0u);
}

TEST(DistributedModeTest, CountAndDistinctMatchLocal) {
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  auto make = [](Context* ctx) {
    std::vector<int> data;
    for (int i = 0; i < 500; ++i) data.push_back(i % 50);
    return ctx->Parallelize(std::move(data));
  };
  EXPECT_EQ(make(&dist).Count(), make(&local).Count());
  EXPECT_EQ(make(&dist).Distinct().Count(), make(&local).Distinct().Count());
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
}

// Chunk builds shuffle runs of cells (one vector per record): the lazy
// ingest and the halo exchange must come back from the daemons bit for
// bit, in the same record order as in LOCAL mode.
TEST(DistributedModeTest, ChunkRunShufflesMatchLocalBitExactly) {
  const ArrayMetadata meta =
      *ArrayMetadata::Make({{"x", -4, 40, 8, 0}, {"y", 3, 30, 7, 0}});
  Rng rng(21);
  std::vector<CellValue> cells;
  for (int64_t x = -4; x < 36; ++x) {
    for (int64_t y = 3; y < 33; ++y) {
      if (rng.NextBool(0.3)) cells.push_back({{x, y}, rng.NextDouble(-1, 1)});
    }
  }
  auto run = [&](Context* ctx) {
    auto base = *ArrayRdd::FromCellsDistributed(ctx, meta, cells);
    std::vector<std::string> out;
    for (const auto& [id, chunk] :
         OverlapArrayRdd::Build(base, 2).expanded_chunks().Collect()) {
      std::string bytes(reinterpret_cast<const char*>(&id), sizeof(id));
      chunk.AppendTo(&bytes);
      out.push_back(std::move(bytes));
    }
    return out;
  };
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  const auto want = run(&local);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(run(&dist), want);
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
}

// Records come back from the daemons in the one defined order: the same
// first-seen order the LOCAL suite checks.
TEST(DistributedModeTest, GroupingsEmitKeysInFirstSeenOrder) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  order_contract::ExpectFirstSeenOrder(&ctx);
  EXPECT_GT(ctx.metrics().remote_shuffle_fetches.load(), 0u);
}

TEST(DistributedModeTest, PageRankMatchesLocalBitExactly) {
  RmatOptions g;
  g.scale = 6;  // 64 vertices
  g.edges_per_vertex = 5;
  const auto edges = GenerateRmat(g);
  PageRankOptions options;
  options.block = 16;
  options.iterations = 8;

  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  auto want = *PageRank(&local, 64, edges, options);
  auto got = *PageRank(&dist, 64, edges, options);
  ASSERT_EQ(got.ranks.size(), want.ranks.size());
  for (size_t v = 0; v < want.ranks.size(); ++v) {
    EXPECT_EQ(got.ranks[v], want.ranks[v]) << "vertex " << v;
  }
}

TEST(DistributedModeTest, MatmulMatchesLocalBitExactly) {
  auto random_entries = [](uint64_t rows, uint64_t cols, uint64_t seed) {
    Rng rng(seed);
    std::vector<MatrixEntry> entries;
    for (uint64_t r = 0; r < rows; ++r) {
      for (uint64_t c = 0; c < cols; ++c) {
        if (rng.NextBool(0.25)) entries.push_back({r, c, rng.NextDouble(-2, 2)});
      }
    }
    return entries;
  };
  const auto ea = random_entries(24, 20, 11);
  const auto eb = random_entries(20, 16, 12);

  auto multiply = [&](Context* ctx) {
    auto a = *BlockMatrix::FromEntries(ctx, 24, 20, 8, ea);
    auto b = *BlockMatrix::FromEntries(ctx, 20, 16, 8, eb);
    return a.Multiply(b)->ToDense();
  };
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  EXPECT_EQ(multiply(&dist), multiply(&local));
}

TEST(DistributedModeTest, BlockMatrixMatVecMatchesLocalBitExactly) {
  Rng rng(13);
  std::vector<MatrixEntry> entries;
  for (uint64_t r = 0; r < 30; ++r) {
    for (uint64_t c = 0; c < 22; ++c) {
      if (rng.NextBool(0.3)) entries.push_back({r, c, rng.NextDouble(-2, 2)});
    }
  }
  std::vector<double> x(22), u(30);
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.NextDouble(-1, 1);
  for (size_t i = 0; i < u.size(); ++i) u[i] = rng.NextDouble(-1, 1);
  // Hash-placed tiles shuffle to the vector blocks, so both products move
  // tiles and partial sums through the data plane.
  auto products = [&](Context* ctx) {
    auto a = *BlockMatrix::FromEntries(ctx, 30, 22, 8, entries);
    auto y = a.MultiplyVector(BlockVector::FromDense(ctx, x, 8, 3));
    auto z = a.LeftMultiplyVector(BlockVector::FromDense(ctx, u, 8, 3));
    std::vector<uint64_t> bits;
    for (const auto& dense : {y->ToDense(), z->ToDense()}) {
      for (double d : dense) {
        uint64_t b = 0;
        std::memcpy(&b, &d, sizeof(b));
        bits.push_back(b);
      }
    }
    return bits;
  };
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  EXPECT_EQ(products(&dist), products(&local));
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
}

TEST(DistributedChaosTest, ChaosSigkillMidJobRecoversThroughLineage) {
  const int kill_target = static_cast<int>(BaseSeed() % 2);
  SCOPED_TRACE("kill_target=" + std::to_string(kill_target) +
               " (SPANGLE_CHAOS_SEED=" + std::to_string(BaseSeed()) + ")");

  Context local(2, 4);
  const auto want = CountByBucket(&local, 1000, 17);

  Context dist(2, 4, 0, {}, Distributed(2));
  // The first attempt of task 0 of the collect stage SIGKILLs a live
  // daemon: map outputs stored on it are genuinely gone, the collect
  // tasks' fetches raise ShuffleBlockLostError, and the job must re-plan
  // and re-materialize the map stage from lineage. Gating on
  // stage_attempt == 0 guarantees convergence.
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_executor = [kill_target](const ChaosTaskInfo& t) -> int {
    if (t.stage != "collect") return -1;
    if (t.task != 0 || t.attempt != 0 || t.stage_attempt != 0) return -1;
    return kill_target;
  };
  dist.set_chaos_policy(policy);

  const pid_t pid_before = dist.fleet()->executor_pid(kill_target);
  const auto got = CountByBucket(&dist, 1000, 17);
  EXPECT_EQ(got, want) << "chaos run must match the fault-free twin";
  EXPECT_GE(dist.metrics().stage_reruns.load(), 1u)
      << "losing a daemon's shuffle shard must force a lineage rerun";
  EXPECT_GE(dist.metrics().executor_restarts.load(), 1u);
  EXPECT_NE(dist.fleet()->executor_pid(kill_target), pid_before)
      << "the killed daemon must be a fresh process";
}

TEST(DistributedChaosTest, ExternalSigkillDetectedOnNextAction) {
  Context dist(2, 4, 0, {}, Distributed(2));
  std::vector<int> data(400);
  for (int i = 0; i < 400; ++i) data[i] = i;
  auto pairs = dist.Parallelize(std::move(data)).Map([](const int& v) {
    return std::pair<int, int>(v % 13, 1);
  });
  auto counts = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  const auto first = counts.Collect();

  // Kill a daemon behind the driver's back, the way a real node dies.
  const int kill_target = static_cast<int>(BaseSeed() % 2);
  const pid_t pid = dist.fleet()->executor_pid(kill_target);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  // The next action notices the death through the ProbeBlock/FetchBlock
  // that needs the dead daemon's shard: the fleet reports the failure,
  // restarts a replacement, and lineage re-materializes the lost shard.
  const auto second = counts.Collect();
  EXPECT_EQ(second, first);
  EXPECT_GE(dist.metrics().executor_restarts.load(), 1u);
  EXPECT_NE(dist.fleet()->executor_pid(kill_target), pid);
}

TEST(DistributedChaosTest, HeartbeatNoticesSilentDeath) {
  Context dist(2, 4, 0, {},
               Distributed(2, /*heartbeat_interval_ms=*/20,
                           /*heartbeat_miss_limit=*/2));
  const pid_t pid = dist.fleet()->executor_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  // The heartbeat loop probes every 20ms and fails the daemon after 2
  // consecutive misses; give it a generous deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (dist.metrics().executor_restarts.load() >= 1 &&
        dist.fleet()->executor_pid(0) != pid &&
        dist.fleet()->executor_pid(0) > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(dist.metrics().heartbeat_misses.load(), 1u);
  EXPECT_GE(dist.metrics().executor_restarts.load(), 1u);
  EXPECT_NE(dist.fleet()->executor_pid(0), pid);

  // The fleet is whole again: jobs run normally on the replacement.
  Context local(2, 4);
  EXPECT_EQ(CountByBucket(&dist, 200, 7), CountByBucket(&local, 200, 7));
}

TEST(DistributedModeTest, ReplannedStageDedupsByContentHash) {
  // Kill daemon 0 mid-job: its shuffle shard is gone, the stage re-plans
  // and re-materializes EVERY partition — but the partitions daemon 1
  // still holds are content-identical, so their re-stores must fold into
  // the existing blocks as counted dedup hits (PutIfAbsent by content
  // hash), not second copies.
  Context local(2, 4);
  const auto want = CountByBucket(&local, 1000, 17);

  Context dist(2, 4, 0, {}, Distributed(2));
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_executor = [](const ChaosTaskInfo& t) -> int {
    if (t.stage != "collect") return -1;
    if (t.task != 0 || t.attempt != 0 || t.stage_attempt != 0) return -1;
    return 0;
  };
  dist.set_chaos_policy(policy);
  const auto got = CountByBucket(&dist, 1000, 17);
  EXPECT_EQ(got, want) << "recovery must stay bit-identical to LOCAL";
  EXPECT_GE(dist.metrics().stage_reruns.load(), 1u);
  EXPECT_GT(dist.metrics().shuffle_block_dedup_hits.load(), 0u)
      << "re-stored partitions surviving on daemon 1 must dedup by "
         "content hash";
  // The fault-free twin never stores a partition twice.
  EXPECT_EQ(local.metrics().shuffle_block_dedup_hits.load(), 0u);
}

/// True while `pid` names a live process.
bool Alive(pid_t pid) { return pid > 0 && ::kill(pid, 0) == 0; }

TEST(DistributedChaosTest, DeadDaemonWithoutRestartFailsJobNotProcess) {
  // A daemon that dies and is not replaced leaves the fleet unable to
  // hold its shard: the job must fail with a typed error, not abort the
  // driver, and the surviving daemon must stay up. The daemon is dead
  // before the job starts; tasks do not touch it until reduce task 1
  // stores its partition there. That store fails, the stage re-plans
  // from lineage, and the re-plan cannot succeed without the daemon.
  DeploymentOptions d = Distributed(2);
  d.distributed.restart_on_failure = false;
  Context ctx(2, 4, 0, {}, d);
  const pid_t survivor = ctx.fleet()->executor_pid(0);
  ctx.FailExecutor(1);
  EXPECT_EQ(ctx.fleet()->executor_pid(1), -1);

  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 200; ++i) data.emplace_back(i, i);
  auto placed = PairRdd<int, int>(ctx.Parallelize(std::move(data)))
                    .PartitionBy(std::make_shared<HashPartitioner<int>>(4));
  EXPECT_THROW(placed.AsRdd().Count(), JobFailedError);
  EXPECT_GE(ctx.metrics().stage_reruns.load(), 1u)
      << "the failed store must re-plan from lineage";
  EXPECT_EQ(ctx.fleet()->executor_pid(0), survivor);
  EXPECT_TRUE(Alive(survivor));
}

TEST(DistributedChaosTest, DeadDaemonDoesNotFailTasksItNeverTouches) {
  // Task bodies run in the driver; a daemon matters only to the puts,
  // fetches and probes that address its shard. A shuffle-free job never
  // addresses a daemon, so a dead, unreplaced one cannot fail it.
  DeploymentOptions d = Distributed(2);
  d.distributed.restart_on_failure = false;
  Context ctx(2, 4, 0, {}, d);
  ctx.FailExecutor(1);
  EXPECT_EQ(ctx.fleet()->executor_pid(1), -1);

  std::vector<int> data(300);
  for (int i = 0; i < 300; ++i) data[i] = i;
  const size_t n = ctx.Parallelize(std::move(data), 6)
                         .Map([](const int& v) { return v * 3; })
                         .Count();
  EXPECT_EQ(n, 300u);
  EXPECT_EQ(ctx.metrics().task_retries.load(), 0u);
}

TEST(DistributedChaosTest, StoreFailureInsideReduceTaskFailsJobNotProcess) {
  // The daemon dies *inside* reduce task 1's body — after the task moved
  // its records out of the map buckets — so the failure surfaces at that
  // task's own shuffle store. It must not be
  // retried as a task (the buckets are already drained): it escalates to
  // a lineage re-plan, which cannot succeed without the daemon, so the
  // job fails with a typed error and the driver lives on.
  DeploymentOptions d = Distributed(2);
  d.distributed.restart_on_failure = false;
  Context ctx(2, 4, 0, {}, d);
  const pid_t survivor = ctx.fleet()->executor_pid(0);
  auto partitioner = std::make_shared<HashPartitioner<int>>(2);

  // Each key appears once per map partition, so the combiner only ever
  // runs reduce-side; the value carries the key so the combiner knows
  // which reduce task it runs in.
  std::vector<std::pair<int, int>> data;
  for (int copy = 0; copy < 2; ++copy) {
    for (int k = 0; k < 50; ++k) data.emplace_back(k, k);
  }
  std::atomic<bool> killed{false};
  auto reduced =
      PairRdd<int, int>(ctx.Parallelize(std::move(data), 2))
          .ReduceByKey(
              [&](const int& a, const int&) {
                if (partitioner->PartitionFor(a) == 1 &&
                    !killed.exchange(true)) {
                  ctx.FailExecutor(1);
                }
                return a;
              },
              partitioner);
  EXPECT_THROW(reduced.AsRdd().Count(), JobFailedError);
  ASSERT_TRUE(killed.load()) << "the reduce-side kill never fired";
  EXPECT_GE(ctx.metrics().stage_reruns.load(), 1u)
      << "a failed store must re-plan from lineage";
  for (const StageStat& s : ctx.metrics().StageStats()) {
    if (s.name == "reduceByKey/reduce") {
      EXPECT_EQ(s.task_retries, 0) << "a failed store is never a task retry";
    }
  }
  EXPECT_TRUE(Alive(survivor));
}

TEST(DistributedChaosTest, RefusedStoreReplansToLocalAnswer) {
  // Reduce task 1 drains its map buckets and its store is refused once.
  // Its one attempt must not be retried from the drained buckets: the
  // task escalates to a lineage re-plan, and the answer matches LOCAL.
  Context ctx(4, 8, 0, {}, Distributed(2));
  std::atomic<bool> refused{false};
  auto chaos = std::make_shared<ChaosPolicy>();
  chaos->fail_store = [&](uint64_t, int partition) {
    return partition == 1 && !refused.exchange(true);
  };
  ctx.set_chaos_policy(chaos);

  Context local(4, 8);
  EXPECT_EQ(CountByBucket(&ctx, 2000, 37), CountByBucket(&local, 2000, 37));
  ASSERT_TRUE(refused.load()) << "the store refusal never fired";
  EXPECT_GE(ctx.metrics().stage_reruns.load(), 1u)
      << "a refused store must re-plan from lineage";
  for (const StageStat& s : ctx.metrics().StageStats()) {
    if (s.name == "reduceByKey/reduce") {
      EXPECT_EQ(s.task_retries, 0) << "a refused store is never a task retry";
    }
  }
}

TEST(DistributedModeTest, RemoteFetchTimeShowsUpInStageStats) {
  Context dist(2, 4, 0, {}, Distributed(2));
  (void)CountByBucket(&dist, 1000, 17);
  EXPECT_GT(dist.metrics().remote_fetch_time_us.load(), 0u);
  // The per-stage breakdown attributes the fetch time to the stage that
  // pulled the shuffle input.
  uint64_t per_stage_total = 0;
  for (const auto& stat : dist.metrics().StageStats()) {
    per_stage_total += stat.remote_fetch_us;
  }
  EXPECT_GT(per_stage_total, 0u);
}

/// Sum of one scraped daemon metric across the fleet.
uint64_t FleetMetric(Context* ctx, const std::string& name) {
  ctx->fleet()->ScrapeAll();
  uint64_t total = 0;
  for (const FleetExecutorStats& st : ctx->fleet()->ExecutorStats()) {
    for (size_t i = 0; i < st.metric_names.size(); ++i) {
      if (st.metric_names[i] == name) total += st.metric_values[i];
    }
  }
  return total;
}

TEST(DistributedModeTest, DaemonSpillRoundTripMatchesLocal) {
  // A daemon budget below one shuffle block: every put evicts the
  // daemon's other blocks to disk and every fetch reads one back.
  Context local(2, 4);
  DeploymentOptions d = Distributed(2);
  d.distributed.executor_memory_budget = 256;
  Context dist(2, 4, 0, {}, d);
  const auto want = CountByBucket(&local, 20000, 2000);
  const auto got = CountByBucket(&dist, 20000, 2000);
  EXPECT_EQ(got, want);
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
  EXPECT_GT(FleetMetric(&dist, "spilled_bytes"), 0u);
  EXPECT_GT(FleetMetric(&dist, "disk_reads"), 0u);
}

// Node id for blocks stored through the fetcher directly; far above any
// engine node.
constexpr uint64_t kProbeNode = uint64_t{1} << 60;

std::vector<std::pair<uint64_t, double>> ProbeRecords() {
  std::vector<std::pair<uint64_t, double>> records;
  for (uint64_t k = 0; k < 500; ++k) records.emplace_back(k * 7, k * 0.5);
  return records;
}

TEST(DistributedModeTest, OversizedPutFailsWithoutRestartingTheDaemon) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  const pid_t pid = ctx.fleet()->executor_pid(0);
  ASSERT_GT(pid, 0);
  // A PutBlock payload is the frame plus the encoded fields around it;
  // size the frame so the payload is one byte over the RPC limit. The
  // buffer is never read (the put is refused before anything is sent),
  // so its pages are never touched.
  net::PutBlockRequest fields;
  std::string head, tail;
  fields.AppendHead(0, &head);
  fields.AppendTail(&tail);
  const size_t n = net::kMaxFramePayload - head.size() - tail.size() + 1;
  std::unique_ptr<char[]> big(new char[n]);
  const Status st = ctx.remote_shuffle()->StoreEncoded(
      kProbeNode, 0, std::string_view(big.get(), n), 0);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_EQ(ctx.metrics().executor_restarts.load(), 0u)
      << "an oversized frame is no evidence of a dead daemon";
  EXPECT_EQ(ctx.fleet()->executor_pid(0), pid);

  // The daemon and its connection still serve a small put and fetch.
  const codec::EncodedFrame frame = codec::EncodePartitionFrame(ProbeRecords());
  ASSERT_TRUE(ctx.remote_shuffle()
                  ->StoreEncoded(kProbeNode, 0, frame.bytes,
                                 frame.content_hash)
                  .ok());
  const auto fetched = ctx.remote_shuffle()->FetchEncoded(kProbeNode, 0);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->view(), frame.bytes);
  EXPECT_EQ(ctx.metrics().executor_restarts.load(), 0u);
}

TEST(DistributedModeTest, FetchedFrameWithTamperedHeaderHashIsLost) {
  // The header's hash field is outside what the hash covers, so a frame
  // whose field was altered still hashes to the daemon's address — the
  // daemon accepts it — and only the frame's own claim is wrong. The
  // fetch must check both, or the reader (which no longer re-hashes)
  // would decode a frame that disagrees with itself.
  Context ctx(2, 4, 0, {}, Distributed(2));
  const codec::EncodedFrame frame = codec::EncodePartitionFrame(ProbeRecords());
  std::string tampered = frame.bytes;
  tampered[12] = static_cast<char>(tampered[12] ^ 0x01);
  ASSERT_EQ(codec::ComputeFrameHash(tampered.data(), tampered.size()),
            frame.content_hash);
  ASSERT_TRUE(ctx.remote_shuffle()
                  ->StoreEncoded(kProbeNode, 1, tampered, frame.content_hash)
                  .ok());
  EXPECT_FALSE(ctx.remote_shuffle()->FetchEncoded(kProbeNode, 1).has_value());

  // The untampered twin fetches and decodes without a second hash.
  ASSERT_TRUE(ctx.remote_shuffle()
                  ->StoreEncoded(kProbeNode, 3, frame.bytes,
                                 frame.content_hash)
                  .ok());
  const auto fetched = ctx.remote_shuffle()->FetchEncoded(kProbeNode, 3);
  ASSERT_TRUE(fetched.has_value());
  auto records = codec::DecodePartitionFrame<std::pair<uint64_t, double>>(
      fetched->data(), fetched->size(), /*verify_hash=*/false);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(*records, ProbeRecords());
  EXPECT_EQ(ctx.metrics().executor_restarts.load(), 0u);
}

}  // namespace
}  // namespace spangle
