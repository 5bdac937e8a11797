// Chaos suite: deterministic fault injection (ChaosPolicy) against real
// pipelines, checked with a differential oracle — every chaos run must
// produce results bit-exact with its fault-free twin, recovery must be
// bounded, and the metrics must account for every retry and rerun.
//
// Seeds derive from SPANGLE_CHAOS_SEED (default 1234); every randomized
// case prints its seed via SCOPED_TRACE so a failure is reproducible with
//   SPANGLE_CHAOS_SEED=<seed> ctest -L chaos

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "array/array_rdd.h"
#include "array/mask_rdd.h"
#include "common/random.h"
#include "engine/engine.h"
#include "matrix/block_matrix.h"
#include "ml/pagerank.h"

namespace spangle {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("SPANGLE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1234;
}

uint64_t HashTask(uint64_t seed, const ChaosTaskInfo& t) {
  uint64_t h = MixSeeds(seed, std::hash<std::string>{}(t.stage));
  return MixSeeds(h, static_cast<uint64_t>(t.task) * 2654435761u + 17);
}

/// Seed-derived policy: ~7% of first-attempt tasks are killed before
/// their body runs, and ~1% take an executor down with them. Predicates
/// are keyed on (stage, stage_attempt, task, attempt) identity, never on
/// timing, so the same seed injects the same faults in every run; gating
/// on stage_attempt == 0 && attempt == 0 guarantees recovery converges.
std::shared_ptr<const ChaosPolicy> SeededPolicy(uint64_t seed, int workers) {
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_task = [seed](const ChaosTaskInfo& t) {
    if (t.attempt != 0 || t.stage_attempt != 0) return false;
    return HashTask(seed, t) % 100 < 7;
  };
  policy->fail_executor = [seed, workers](const ChaosTaskInfo& t) -> int {
    if (t.attempt != 0 || t.stage_attempt != 0) return -1;
    const uint64_t h = HashTask(seed ^ 0x5bd1e995u, t);
    if (h % 100 >= 1) return -1;
    return static_cast<int>(h / 100 % static_cast<uint64_t>(workers));
  };
  return policy;
}

/// Deterministic last-resort policy: the first attempt of task 0 of
/// every stage dies once. Converges (gated on attempt/stage_attempt 0)
/// and fires for any job with at least one stage.
std::shared_ptr<const ChaosPolicy> ForceOneKillPolicy() {
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_task = [](const ChaosTaskInfo& t) {
    return t.task == 0 && t.attempt == 0 && t.stage_attempt == 0;
  };
  return policy;
}

/// Drives one differential parity round per derived seed. `round` runs
/// the workload twice (fault-free and under the given policy), checks
/// parity, and returns how many retries/reruns the chaos run recorded.
/// Rounds continue past the minimum until chaos actually fired (the
/// ~7% hash-gated policy can miss every task of a small job for some
/// seeds); if a dozen seeds all miss, a final round with
/// ForceOneKillPolicy keeps the oracle non-vacuous for *any* base seed
/// the stress harness rotates through.
void RunSeededParity(
    uint64_t base, uint64_t salt,
    const std::function<uint64_t(uint64_t seed,
                                 std::shared_ptr<const ChaosPolicy>)>& round) {
  uint64_t injected = 0;  // guards against a vacuous differential oracle
  for (int k = 0; k < 12 && (k < 4 || injected == 0); ++k) {
    const uint64_t seed = MixSeeds(base, static_cast<uint64_t>(k) + salt);
    SCOPED_TRACE("derived seed=" + std::to_string(seed) +
                 " (rerun with SPANGLE_CHAOS_SEED=" + std::to_string(base) +
                 ")");
    injected += round(seed, SeededPolicy(seed, 4));
  }
  if (injected == 0) {
    SCOPED_TRACE("forced-kill round (SPANGLE_CHAOS_SEED=" +
                 std::to_string(base) + ")");
    injected += round(MixSeeds(base, salt), ForceOneKillPolicy());
  }
  EXPECT_GT(injected, 0u) << "chaos never fired, even in the forced round";
}

void ExpectCleanAccounting(Context& ctx) {
  EngineMetrics& m = ctx.metrics();
  EXPECT_EQ(m.bytes_cached.load(), ctx.block_manager().bytes_in_memory());
  // Bounded recovery: every retry is one extra attempt of a logical
  // task, so retries can never exceed what a handful of rounds per
  // stage could relaunch.
  EXPECT_LE(m.task_retries.load(), 4 * m.tasks_run.load());
}

// ---------------------------------------------------------------------------
// Surgical acceptance case: an executor dies mid-job, after the shuffle
// materialized but before the result stage read its output. The job must
// re-plan, re-run only the lost stage from lineage, and produce bit-exact
// results, with the recovery visible in stage_reruns and task_retries.
// ---------------------------------------------------------------------------

TEST(ChaosTest, ExecutorDeathMidJobRecoversBitExactly) {
  auto run = [](bool with_chaos, Context& ctx) {
    if (with_chaos) {
      auto policy = std::make_shared<ChaosPolicy>();
      // Kill worker 2 exactly when the result stage's task 2 starts: the
      // shuffle is already materialized, and partition 2 (resident on
      // worker 2) vanishes right before task 2 fetches it.
      policy->fail_executor = [](const ChaosTaskInfo& t) {
        return (t.stage == "collect" && t.task == 2 && t.attempt == 0 &&
                t.stage_attempt == 0)
                   ? 2
                   : -1;
      };
      // Independently, one map task dies on its first attempt: plain
      // task retry, no stage rerun.
      policy->fail_task = [](const ChaosTaskInfo& t) {
        return t.stage == "reduceByKey/map" && t.task == 1 &&
               t.attempt == 0 && t.stage_attempt == 0;
      };
      ctx.set_chaos_policy(policy);
    }
    std::vector<std::pair<uint64_t, int>> data;
    for (int i = 0; i < 800; ++i) data.emplace_back(i % 64, i);
    auto reduced = ToPair<uint64_t, int>(ctx.Parallelize(data, 8))
                       .ReduceByKey(
                           [](const int& a, const int& b) { return a + b; });
    return reduced.AsRdd().Collect();
  };

  Context baseline_ctx(4);
  const auto want = run(false, baseline_ctx);
  EXPECT_EQ(baseline_ctx.metrics().stage_reruns.load(), 0u);
  EXPECT_EQ(baseline_ctx.metrics().task_retries.load(), 0u);

  Context chaos_ctx(4);
  const auto got = run(true, chaos_ctx);
  EXPECT_EQ(got, want) << "recovered run must be bit-exact";
  EXPECT_GE(chaos_ctx.metrics().stage_reruns.load(), 1u)
      << "losing materialized shuffle output must re-run the stage";
  EXPECT_GE(chaos_ctx.metrics().task_retries.load(), 1u)
      << "the killed map task must have been retried";
  ExpectCleanAccounting(chaos_ctx);
}

TEST(ChaosTest, TaskRetriesExhaustedFailsTheJob) {
  Context ctx(4);
  FaultToleranceOptions opts;
  opts.max_task_retries = 2;
  opts.retry_backoff_us = 10;
  ctx.set_fault_options(opts);
  auto policy = std::make_shared<ChaosPolicy>();
  // Task 3 of the result stage dies on *every* attempt.
  policy->fail_task = [](const ChaosTaskInfo& t) {
    return t.stage == "collect" && t.task == 3;
  };
  ctx.set_chaos_policy(policy);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = ctx.Parallelize(data, 8);
  EXPECT_THROW(rdd.Collect(), JobFailedError);
  EXPECT_EQ(ctx.metrics().task_retries.load(), 2u);
}

// A task index has one attempt in flight, and a retry is a new round after
// the stage barrier, so the attempt a task sees is its retry round. The
// stage record keeps the first attempt in the task's slot and appends
// each retry as an extra trace lane carrying that round.
TEST(ChaosTest, RetriedTaskSucceedsWithoutJobRerun) {
  Context ctx(4);
  std::mutex mu;
  std::vector<int> seen;
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_task = [&mu, &seen](const ChaosTaskInfo& t) {
    if (t.stage != "count" || t.task != 5) return false;
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(t.attempt);
    return t.attempt < 2;
  };
  ctx.set_chaos_policy(policy);
  std::vector<int> data(640);
  std::iota(data.begin(), data.end(), 0);
  EXPECT_EQ(ctx.Parallelize(data, 8).Count(), 640u);
  EXPECT_EQ(ctx.metrics().task_retries.load(), 2u);
  EXPECT_EQ(ctx.metrics().stage_reruns.load(), 0u);
  EXPECT_EQ(ctx.metrics().jobs_run.load(), 1u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));

  std::vector<StageStat> counts;
  for (StageStat& s : ctx.metrics().StageStats()) {
    if (s.name == "count") counts.push_back(std::move(s));
  }
  ASSERT_EQ(counts.size(), 1u);
  const StageStat& stage = counts[0];
  EXPECT_EQ(stage.task_retries, 2);
  ASSERT_EQ(stage.tasks.size(), 10u) << "8 primary slots + 2 retry lanes";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(stage.tasks[i].index, i);
    EXPECT_EQ(stage.tasks[i].attempt, 0) << "slot " << i;
  }
  EXPECT_EQ(stage.tasks[8].index, 5);
  EXPECT_EQ(stage.tasks[8].attempt, 1);
  EXPECT_EQ(stage.tasks[9].index, 5);
  EXPECT_EQ(stage.tasks[9].attempt, 2);
}

// Reduce tasks commit their own output partition. A reduce attempt killed
// before its body runs is a plain task retry: the retry finds its map
// buckets intact, commits exactly once, and the result matches the
// fault-free twin bit for bit — in LOCAL (block store) and DISTRIBUTED
// (daemon put) alike. String values make a rebuild from moved-from
// buckets visible as empty strings, not merely as wrong sums.
TEST(ChaosTest, KilledReduceAttemptRetriesAndCommitsOnce) {
  auto run = [](bool with_chaos, Context& ctx) {
    if (with_chaos) {
      auto policy = std::make_shared<ChaosPolicy>();
      policy->fail_task = [](const ChaosTaskInfo& t) {
        return t.attempt == 0 && t.stage_attempt == 0 &&
               t.stage.ends_with("/reduce");
      };
      ctx.set_chaos_policy(policy);
    }
    std::vector<std::pair<uint64_t, std::string>> data;
    for (int i = 0; i < 600; ++i) {
      data.emplace_back(i % 37, std::string("v").append(std::to_string(i)));
    }
    auto pairs = ToPair<uint64_t, std::string>(ctx.Parallelize(data, 6));
    auto placed = pairs.PartitionBy(
        std::make_shared<HashPartitioner<uint64_t>>(5));
    auto joined = pairs.ReduceByKey(
        [](const std::string& a, const std::string& b) { return a + b; });
    return std::make_pair(placed.AsRdd().Collect(), joined.AsRdd().Collect());
  };
  for (const bool distributed : {false, true}) {
    SCOPED_TRACE(distributed ? "DISTRIBUTED" : "LOCAL");
    DeploymentOptions deploy;
    if (distributed) {
      deploy.mode = DeploymentMode::kDistributed;
      deploy.distributed.num_executors = 2;
    }
    Context twin(4, 8, 0, {}, deploy);
    const auto want = run(false, twin);
    EXPECT_EQ(twin.metrics().task_retries.load(), 0u);
    EXPECT_EQ(twin.metrics().shuffle_block_dedup_hits.load(), 0u);

    Context chaos(4, 8, 0, {}, deploy);
    const auto got = run(true, chaos);
    EXPECT_EQ(got, want) << "retried reduce tasks must be bit-exact";
    EXPECT_GE(chaos.metrics().task_retries.load(), 1u)
        << "the reduce kill never fired";
    EXPECT_EQ(chaos.metrics().stage_reruns.load(), 0u);
    EXPECT_EQ(chaos.metrics().shuffle_block_dedup_hits.load(), 0u)
        << "a killed attempt committed nothing, so nothing is re-stored";
  }
}

// A reduce attempt that fails *after* draining its map buckets — here the
// user combiner throws once, reduce-side — must not be retried as a task:
// the retry would rebuild the partition from empty buckets and commit a
// short result. It escalates to a lineage re-plan, which recomputes the
// buckets, so the counts come out exact.
TEST(ChaosTest, ReduceFailureAfterDrainReplansInsteadOfRetrying) {
  Context ctx(4, 8);
  // Each key appears once per map partition, so the combiner only ever
  // runs reduce-side.
  constexpr int kCopies = 3;
  std::vector<std::pair<int, int>> data;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (int k = 0; k < 64; ++k) data.emplace_back(k, 1);
  }
  std::atomic<bool> thrown{false};
  auto counts =
      PairRdd<int, int>(ctx.Parallelize(std::move(data), kCopies))
          .ReduceByKey(
              [&](const int& a, const int& b) {
                if (!thrown.exchange(true)) {
                  throw std::runtime_error("combiner failed once");
                }
                return a + b;
              },
              std::make_shared<HashPartitioner<int>>(4));
  std::map<int, int> got;
  for (const auto& [k, v] : counts.Collect()) got[k] = v;
  ASSERT_TRUE(thrown.load()) << "the combiner never ran reduce-side";
  ASSERT_EQ(got.size(), 64u);
  for (const auto& [k, v] : got) {
    EXPECT_EQ(v, kCopies) << "key " << k << " lost records to a retry";
  }
  EXPECT_GE(ctx.metrics().stage_reruns.load(), 1u)
      << "a failure after the drain must re-plan from lineage";
}

// ---------------------------------------------------------------------------
// Seeded differential suite: real workloads under randomized (but
// deterministic, identity-keyed) chaos vs their fault-free twins.
// ---------------------------------------------------------------------------

TEST(ChaosTest, SeededPageRankParity) {
  RunSeededParity(
      BaseSeed(), 1,
      [](uint64_t seed, std::shared_ptr<const ChaosPolicy> policy) {
        Rng rng(seed);
        const uint64_t n = 120;
        std::vector<std::pair<uint64_t, uint64_t>> edges;
        for (int e = 0; e < 500; ++e) {
          edges.emplace_back(rng.NextBounded(n), rng.NextBounded(n));
        }
        PageRankOptions opts;
        opts.iterations = 4;
        opts.block = 32;
        opts.num_partitions = 8;

        Context baseline_ctx(4);
        const auto want = PageRank(&baseline_ctx, n, edges, opts);
        EXPECT_TRUE(want.ok());

        Context chaos_ctx(4);
        chaos_ctx.set_chaos_policy(std::move(policy));
        const auto got = PageRank(&chaos_ctx, n, edges, opts);
        EXPECT_TRUE(got.ok());
        if (want.ok() && got.ok()) {
          EXPECT_EQ(got->ranks, want->ranks) << "bit-exact parity required";
        }
        ExpectCleanAccounting(chaos_ctx);
        return chaos_ctx.metrics().task_retries.load() +
               chaos_ctx.metrics().stage_reruns.load();
      });
}

TEST(ChaosTest, SeededMatrixMultiplyParity) {
  RunSeededParity(
      BaseSeed(), 101,
      [](uint64_t seed, std::shared_ptr<const ChaosPolicy> policy) {
        Rng rng(seed);
        auto random_entries = [&rng](int count) {
          std::vector<MatrixEntry> entries;
          entries.reserve(count);
          for (int i = 0; i < count; ++i) {
            entries.push_back(
                {rng.NextBounded(24), rng.NextBounded(24),
                 static_cast<double>(rng.NextBounded(1000)) / 7.0});
          }
          return entries;
        };
        const auto ea = random_entries(160);
        const auto eb = random_entries(160);
        auto run = [&ea, &eb](Context& ctx) {
          auto a = *BlockMatrix::FromEntries(&ctx, 24, 24, 8, ea);
          auto b = *BlockMatrix::FromEntries(&ctx, 24, 24, 8, eb);
          MatMulOptions mo;
          mo.force_shuffle_join = true;  // exercises the shuffle-join stages
          auto c = a.Multiply(b, mo);
          EXPECT_TRUE(c.ok());
          return c->ToDense();
        };

        Context baseline_ctx(4);
        const auto want = run(baseline_ctx);
        Context chaos_ctx(4);
        chaos_ctx.set_chaos_policy(std::move(policy));
        const auto got = run(chaos_ctx);
        EXPECT_EQ(got, want) << "bit-exact parity required";
        ExpectCleanAccounting(chaos_ctx);
        return chaos_ctx.metrics().task_retries.load() +
               chaos_ctx.metrics().stage_reruns.load();
      });
}

TEST(ChaosTest, SeededMaskFilterParity) {
  RunSeededParity(
      BaseSeed(), 201,
      [](uint64_t seed, std::shared_ptr<const ChaosPolicy> policy) {
        Rng rng(seed);
        std::vector<CellValue> cells;
        for (int64_t x = 0; x < 32; ++x) {
          for (int64_t y = 0; y < 32; ++y) {
            if (rng.NextBool(0.6)) {
              cells.push_back(
                  {{x, y},
                   static_cast<double>(rng.NextBounded(1000)) / 1000.0});
            }
          }
        }
        const auto meta =
            *ArrayMetadata::Make({{"x", 0, 32, 8, 0}, {"y", 0, 32, 8, 0}});
        auto run = [&meta, &cells](Context& ctx) {
          auto arr = *ArrayRdd::FromCells(&ctx, meta, cells);
          MaskRdd mask = MaskRdd::FromArray(arr).AndPredicate(
              arr, [](double v) { return v > 0.3; });
          const uint64_t count = mask.CountValid();
          const uint64_t applied = mask.ApplyTo(arr).CountValid();
          return std::pair<uint64_t, uint64_t>(count, applied);
        };

        Context baseline_ctx(4);
        const auto want = run(baseline_ctx);
        EXPECT_EQ(want.first, want.second);
        Context chaos_ctx(4);
        chaos_ctx.set_chaos_policy(std::move(policy));
        const auto got = run(chaos_ctx);
        EXPECT_EQ(got, want);
        ExpectCleanAccounting(chaos_ctx);
        return chaos_ctx.metrics().task_retries.load() +
               chaos_ctx.metrics().stage_reruns.load();
      });
}

}  // namespace
}  // namespace spangle
