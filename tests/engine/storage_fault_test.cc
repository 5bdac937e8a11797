// End-to-end storage stress: PageRank with cached state under a tight
// memory budget loses an executor mid-run; the final ranks must be
// bit-identical to an undisturbed run, with lineage recomputation doing
// real work along the way. A spill directory that cannot be written, or
// a full disk, fails spills, never the process, and every answer stays
// exact.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "ml/pagerank.h"

namespace spangle {
namespace {

std::vector<std::pair<uint64_t, uint64_t>> RandomGraph(uint64_t n,
                                                       size_t edges,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(edges);
  for (size_t i = 0; i < edges; ++i) {
    out.emplace_back(rng.NextBounded(n), rng.NextBounded(n));
  }
  return out;
}

TEST(StorageFaultTest, PageRankSurvivesExecutorLossUnderTightBudget) {
  const uint64_t n = 2000;
  const auto edges = RandomGraph(n, 12000, 42);

  PageRankOptions options;
  options.iterations = 10;
  options.block = 256;

  // Undisturbed baseline with unlimited memory.
  Context baseline_ctx(4);
  auto baseline = PageRank(&baseline_ctx, n, edges, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Faulted run: ~1 MB budget forces evictions throughout, and worker 1
  // dies after iteration 4, taking its cached rank-vector partitions and
  // matrix tiles with it.
  StorageOptions storage;
  storage.memory_budget_bytes = 1 << 20;
  Context faulted_ctx(4, 0, 0, storage);
  PageRankOptions faulted_options = options;
  faulted_options.storage_level = StorageLevel::kMemoryAndDisk;
  faulted_options.on_iteration = [&faulted_ctx](int it, double) {
    if (it == 4) faulted_ctx.FailExecutor(1);
  };
  auto faulted = PageRank(&faulted_ctx, n, edges, faulted_options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  ASSERT_EQ(faulted.ValueOrDie().ranks.size(),
            baseline.ValueOrDie().ranks.size());
  for (uint64_t v = 0; v < n; ++v) {
    ASSERT_EQ(faulted.ValueOrDie().ranks[v], baseline.ValueOrDie().ranks[v])
        << "rank of vertex " << v << " diverged after recovery";
  }
  EXPECT_GT(faulted_ctx.metrics().recomputed_partitions.load(), 0u)
      << "the failure must have forced lineage recomputation";
}

TEST(StorageFaultTest, PageRankRebuildsMatrixTilesFromOffsetsBeforeIterating) {
  const uint64_t n = 2000;
  const auto edges = RandomGraph(n, 12000, 43);

  PageRankOptions options;
  options.iterations = 6;
  options.block = 256;

  Context baseline_ctx(4);
  auto baseline = PageRank(&baseline_ctx, n, edges, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Worker 1 dies once the tiles are cached (ColumnDegrees collected them)
  // and before the first power iteration: the matrix-size aggregate is
  // the only stage in between. Its tiles must rebuild from the offset
  // lists of the source.
  Context faulted_ctx(4);
  auto kills = std::make_shared<std::atomic<int>>(0);
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_executor = [kills](const ChaosTaskInfo& t) {
    if (t.stage != "aggregate" || t.task != 0 || t.attempt != 0 ||
        t.stage_attempt != 0 || kills->fetch_add(1) != 0) {
      return -1;
    }
    return 1;
  };
  faulted_ctx.set_chaos_policy(policy);
  auto faulted = PageRank(&faulted_ctx, n, edges, options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(kills->load(), 1);
  EXPECT_EQ(faulted.ValueOrDie().ranks, baseline.ValueOrDie().ranks);
  EXPECT_GT(faulted_ctx.metrics().recomputed_partitions.load(), 0u);
}

TEST(StorageFaultTest, RepeatedFailuresStillConverge) {
  const uint64_t n = 500;
  const auto edges = RandomGraph(n, 3000, 7);

  PageRankOptions options;
  options.iterations = 8;
  options.block = 128;

  Context baseline_ctx(4);
  auto baseline = PageRank(&baseline_ctx, n, edges, options);
  ASSERT_TRUE(baseline.ok());

  StorageOptions storage;
  storage.memory_budget_bytes = 256 * 1024;
  Context faulted_ctx(4, 0, 0, storage);
  PageRankOptions faulted_options = options;
  faulted_options.on_iteration = [&faulted_ctx](int it, double) {
    // A different executor dies after every other iteration.
    if (it % 2 == 1) faulted_ctx.FailExecutor(it % 4);
  };
  auto faulted = PageRank(&faulted_ctx, n, edges, faulted_options);
  ASSERT_TRUE(faulted.ok());
  EXPECT_EQ(faulted.ValueOrDie().ranks, baseline.ValueOrDie().ranks);
}

// Caches at both disk-backed levels plus a shuffle, all under a budget
// far below one partition, so nearly every put evicts and every eviction
// and DISK_ONLY put tries to spill. Runs each query twice: the second
// round reads whatever the first left behind. Answers must be exact.
void ExpectExactAnswersUnderFailingSpills(Context* ctx) {
  std::vector<int> data(4000);
  for (int i = 0; i < 4000; ++i) data[i] = i;
  std::vector<int> tripled, decremented;
  for (int x : data) {
    tripled.push_back(x * 3);
    decremented.push_back(x - 1);
  }
  std::vector<std::pair<int, int>> counts;
  for (int k = 0; k < 16; ++k) counts.emplace_back(k, 250);

  auto source = ctx->Parallelize(data, 8);
  auto both = source.Map([](const int& x) { return x * 3; });
  both.Cache(StorageLevel::kMemoryAndDisk);
  auto disk = source.Map([](const int& x) { return x - 1; });
  disk.Cache(StorageLevel::kDiskOnly);
  auto keyed = PairRdd<int, int>(source.Map([](const int& x) {
                 return std::pair<int, int>(x % 16, 1);
               })).ReduceByKey([](const int& a, const int& b) { return a + b; });
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(both.Collect(), tripled) << "round " << round;
    EXPECT_EQ(disk.Collect(), decremented) << "round " << round;
    auto got = keyed.AsRdd().Collect();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, counts) << "round " << round;
  }
  EXPECT_GT(ctx->metrics().evictions.load(), 0u);
  EXPECT_GT(ctx->metrics().recomputed_partitions.load(), 0u)
      << "evicted blocks that could not spill must recompute from lineage";
  EXPECT_EQ(ctx->metrics().stage_reruns.load(), 0u)
      << "shuffle output that could not spill must stay resident";
}

TEST(SpillFailureTest, UncreatableSpillDirFailsNoProcess) {
  // A directory under a regular file fails with ENOTDIR, even for root.
  const std::string blocker = ::testing::TempDir() + "/spangle_spill_blocker_" +
                              std::to_string(::getpid());
  std::ofstream(blocker) << "not a directory";
  StorageOptions storage;
  storage.memory_budget_bytes = 1024;
  storage.spill_dir = blocker + "/spill";
  {
    Context ctx(2, 0, 0, storage);
    ExpectExactAnswersUnderFailingSpills(&ctx);
    EXPECT_EQ(ctx.metrics().spilled_bytes.load(), 0u);
  }
  std::remove(blocker.c_str());
}

TEST(SpillFailureTest, SpillDirRemovedMidRunFailsLaterSpills) {
  StorageOptions storage;
  storage.memory_budget_bytes = 1024;
  storage.spill_dir = ::testing::TempDir() + "/spangle_spill_removed_" +
                      std::to_string(::getpid());
  Context ctx(2, 0, 0, storage);
  std::vector<int> data(4000, 5);
  auto first = ctx.Parallelize(data, 8).Map([](const int& x) { return x + 1; });
  first.Cache(StorageLevel::kMemoryAndDisk);
  EXPECT_EQ(first.Collect(), std::vector<int>(4000, 6));
  const uint64_t spilled = ctx.metrics().spilled_bytes.load();
  ASSERT_GT(spilled, 0u) << "the first spills must have succeeded";

  // The BlockManager created the directory once and does not expect it
  // to vanish: every later spill write fails.
  std::filesystem::remove_all(storage.spill_dir);
  ExpectExactAnswersUnderFailingSpills(&ctx);
  EXPECT_EQ(ctx.metrics().spilled_bytes.load(), spilled);
}

// A full disk, made real for this process only: RLIMIT_FSIZE 0 makes
// every write to a regular file fail with EFBIG (SIGXFSZ ignored, so the
// write returns the error instead of killing the process). The limit and
// the signal disposition are restored on scope exit.
class FileSizeLimitZero {
 public:
  FileSizeLimitZero() {
    ok_ = ::getrlimit(RLIMIT_FSIZE, &saved_) == 0;
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit full = saved_;
    full.rlim_cur = 0;
    ok_ = ok_ && ::setrlimit(RLIMIT_FSIZE, &full) == 0;
  }
  ~FileSizeLimitZero() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimitZero(const FileSizeLimitZero&) = delete;
  FileSizeLimitZero& operator=(const FileSizeLimitZero&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

TEST(SpillFailureTest, FullDiskFailsSpillsNotJobs) {
  StorageOptions storage;
  storage.memory_budget_bytes = 1024;
  storage.spill_dir = ::testing::TempDir() + "/spangle_spill_full_" +
                      std::to_string(::getpid());
  {
    FileSizeLimitZero full_disk;
    ASSERT_TRUE(full_disk.ok());
    {
      // The limit really bites: a write fails with EFBIG, and the
      // process lives on.
      const std::string probe = ::testing::TempDir() +
                                "/spangle_full_disk_probe_" +
                                std::to_string(::getpid());
      std::FILE* f = std::fopen(probe.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      errno = 0;
      EXPECT_EQ(::write(::fileno(f), "x", 1), -1);
      EXPECT_EQ(errno, EFBIG);
      std::fclose(f);
      std::remove(probe.c_str());
    }
    Context ctx(2, 0, 0, storage);
    ExpectExactAnswersUnderFailingSpills(&ctx);
    EXPECT_GT(ctx.metrics().evictions.load(), 0u);
    EXPECT_EQ(ctx.metrics().spilled_bytes.load(), 0u)
        << "no spill write can succeed on a full disk";
  }
  std::filesystem::remove_all(storage.spill_dir);
}

// Spills a MEMORY_AND_DISK cache, a DISK_ONLY cache and a reduceByKey's
// output under a 1 KiB budget, damages every spill file with `damage`,
// then reads everything again. A recomputable block whose file is bad
// recomputes from lineage; the shuffle output re-runs its shuffle.
template <typename Damage>
void ExpectExactAnswersAfterSpillDamage(const std::string& tag,
                                        Damage damage) {
  StorageOptions storage;
  storage.memory_budget_bytes = 1024;
  storage.spill_dir = ::testing::TempDir() + "/spangle_spill_" + tag + "_" +
                      std::to_string(::getpid());
  {
    Context ctx(2, 0, 0, storage);
    std::vector<int> data(4000);
    for (int i = 0; i < 4000; ++i) data[i] = i;
    std::vector<int> tripled, decremented;
    for (int x : data) {
      tripled.push_back(x * 3);
      decremented.push_back(x - 1);
    }
    std::vector<std::pair<int, int>> counts;
    for (int k = 0; k < 16; ++k) counts.emplace_back(k, 250);
    auto source = ctx.Parallelize(data, 8);
    auto both = source.Map([](const int& x) { return x * 3; });
    both.Cache(StorageLevel::kMemoryAndDisk);
    auto disk = source.Map([](const int& x) { return x - 1; });
    disk.Cache(StorageLevel::kDiskOnly);
    auto keyed = PairRdd<int, int>(source.Map([](const int& x) {
                   return std::pair<int, int>(x % 16, 1);
                 })).ReduceByKey([](const int& a, const int& b) {
      return a + b;
    });
    auto sorted_counts = [&keyed] {
      auto got = keyed.AsRdd().Collect();
      std::sort(got.begin(), got.end());
      return got;
    };
    // The shuffle runs first, so the caches that follow evict (and
    // spill) its output.
    EXPECT_EQ(sorted_counts(), counts);
    EXPECT_EQ(both.Collect(), tripled);
    EXPECT_EQ(disk.Collect(), decremented);
    ASSERT_GT(ctx.metrics().spilled_bytes.load(), 0u);

    size_t damaged = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(storage.spill_dir)) {
      damage(entry.path());
      ++damaged;
    }
    ASSERT_GT(damaged, 0u);
    const uint64_t recomputed = ctx.metrics().recomputed_partitions.load();
    const uint64_t reruns = ctx.metrics().stage_reruns.load();
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(sorted_counts(), counts) << "round " << round;
      EXPECT_EQ(both.Collect(), tripled) << "round " << round;
      EXPECT_EQ(disk.Collect(), decremented) << "round " << round;
    }
    EXPECT_GT(ctx.metrics().recomputed_partitions.load(), recomputed)
        << "cached blocks with a bad spill file must recompute";
    EXPECT_GT(ctx.metrics().stage_reruns.load(), reruns)
        << "a shuffle output with a bad spill file must re-run its shuffle";
  }
  std::filesystem::remove_all(storage.spill_dir);
}

TEST(SpillReadbackFailureTest, VanishedSpillFilesRecompute) {
  ExpectExactAnswersAfterSpillDamage(
      "vanished", [](const std::filesystem::path& p) {
        std::filesystem::remove(p);
      });
}

TEST(SpillReadbackFailureTest, TruncatedSpillFilesRecompute) {
  ExpectExactAnswersAfterSpillDamage(
      "truncated", [](const std::filesystem::path& p) {
        std::filesystem::resize_file(p, std::filesystem::file_size(p) / 2);
      });
}

}  // namespace
}  // namespace spangle
