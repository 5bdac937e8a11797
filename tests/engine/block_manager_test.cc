#include "engine/block_manager.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "codec/frame_file.h"
#include "codec/record_codec.h"
#include "engine/engine.h"
#include "matrix/mask_matrix.h"

namespace spangle {
namespace {

// The codec must cover every record type the engine caches; regressions
// here silently turn MEMORY_AND_DISK into MEMORY_ONLY.
static_assert(codec::kSpillable<int>);
static_assert(codec::kSpillable<double>);
static_assert(codec::kSpillable<std::string>);
static_assert(codec::kSpillable<std::pair<uint64_t, int>>);
static_assert(codec::kSpillable<std::vector<double>>);
static_assert(codec::kSpillable<std::pair<uint64_t, std::vector<double>>>);
static_assert(!codec::kSpillable<std::function<void()>>);
static_assert(!codec::kSpillable<MaskTile>);

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---------------------------------------------------------------------------
// Direct BlockManager unit tests (no engine on top).
// ---------------------------------------------------------------------------

StorageOptions Budget(uint64_t bytes) {
  StorageOptions options;
  options.memory_budget_bytes = bytes;
  return options;
}

BlockManager::DataPtr MakeBlock(int fill, size_t n = 10) {
  return std::make_shared<const std::vector<int>>(n, fill);
}

TEST(BlockManagerTest, LruEvictionUnderBudget) {
  EngineMetrics metrics;
  BlockManager bm(Budget(100), 2, &metrics);
  // Three 40-byte blocks into a 100-byte budget: the third insert evicts
  // the least recently used (block 0).
  bm.Put({1, 0}, MakeBlock(0), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  bm.Put({1, 1}, MakeBlock(1), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  EXPECT_EQ(bm.bytes_in_memory(), 80u);
  bm.Put({1, 2}, MakeBlock(2), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  EXPECT_LE(bm.bytes_in_memory(), 100u);
  EXPECT_EQ(metrics.evictions.load(), 1u);

  auto r0 = bm.Get({1, 0});
  EXPECT_EQ(r0.data, nullptr);
  EXPECT_TRUE(r0.was_lost) << "evicted MEMORY_ONLY block must ask for "
                              "recompute";
  EXPECT_NE(bm.Get({1, 1}).data, nullptr);
  EXPECT_NE(bm.Get({1, 2}).data, nullptr);
  EXPECT_LE(metrics.memory_high_water.load(), 100u);
}

TEST(BlockManagerTest, GetTouchesLruOrder) {
  EngineMetrics metrics;
  BlockManager bm(Budget(100), 2, &metrics);
  bm.Put({1, 0}, MakeBlock(0), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  bm.Put({1, 1}, MakeBlock(1), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  // Touch block 0 so block 1 becomes the eviction victim.
  EXPECT_NE(bm.Get({1, 0}).data, nullptr);
  bm.Put({1, 2}, MakeBlock(2), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  EXPECT_NE(bm.Get({1, 0}).data, nullptr);
  EXPECT_EQ(bm.Get({1, 1}).data, nullptr);
}

TEST(BlockManagerTest, OversizedBlockStillInserts) {
  EngineMetrics metrics;
  BlockManager bm(Budget(10), 2, &metrics);
  // A single block larger than the whole budget: everything else is
  // evicted, but the block itself must still be usable (Spark semantics:
  // the budget bounds steady state, not a single partition).
  bm.Put({1, 0}, MakeBlock(7), 400, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  EXPECT_NE(bm.Get({1, 0}).data, nullptr);
}

TEST(BlockManagerTest, DropNodeForgetsHistory) {
  EngineMetrics metrics;
  BlockManager bm({}, 2, &metrics);
  bm.Put({5, 0}, MakeBlock(1), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  bm.Put({5, 1}, MakeBlock(2), 40, StorageLevel::kMemoryOnly, nullptr,
         nullptr);
  EXPECT_TRUE(bm.ContainsAll(5, 2));
  bm.DropNode(5);
  EXPECT_FALSE(bm.Contains({5, 0}));
  EXPECT_EQ(bm.bytes_in_memory(), 0u);
  // Unpersist is not a fault: no lost tombstone survives.
  EXPECT_FALSE(bm.Get({5, 0}).was_lost);
}

TEST(BlockManagerTest, FailExecutorDropsByPlacement) {
  EngineMetrics metrics;
  BlockManager bm({}, /*num_workers=*/4, &metrics);
  for (int p = 0; p < 8; ++p) {
    bm.Put({9, p}, MakeBlock(p), 10, StorageLevel::kMemoryOnly, nullptr,
           nullptr);
  }
  bm.FailExecutor(1);  // partitions 1 and 5 live on worker 1
  for (int p = 0; p < 8; ++p) {
    const bool on_failed = (p % 4 == 1);
    EXPECT_EQ(bm.Contains({9, p}), !on_failed) << "partition " << p;
    EXPECT_EQ(bm.Get({9, p}).was_lost, on_failed) << "partition " << p;
  }
}

// ---------------------------------------------------------------------------
// Through the engine: bounded caches, spill, recovery.
// ---------------------------------------------------------------------------

TEST(BoundedCacheTest, MemoryOnlyStaysUnderBudgetAndRecomputes) {
  // 16 partitions x 6250 ints ~ 25 KB each; budget fits only a couple.
  StorageOptions storage;
  storage.memory_budget_bytes = 64 * 1024;
  Context ctx(4, 0, 0, storage);
  auto rdd = ctx.Parallelize(Iota(100000), 16).Map([](const int& x) {
    return x * 2;
  });
  rdd.Cache();

  auto first = rdd.Collect();
  ASSERT_EQ(first.size(), 100000u);
  const auto& m = ctx.metrics();
  EXPECT_LE(m.memory_high_water.load(), storage.memory_budget_bytes);
  EXPECT_GT(m.evictions.load(), 0u);
  EXPECT_LE(ctx.block_manager().bytes_in_memory(),
            storage.memory_budget_bytes);

  // Evicted MEMORY_ONLY partitions recompute from lineage, correctly.
  ctx.metrics().Reset();
  EXPECT_EQ(rdd.Collect(), first);
  EXPECT_GT(ctx.metrics().recomputed_partitions.load(), 0u);
}

TEST(BoundedCacheTest, MemoryAndDiskSpillsInsteadOfRecomputing) {
  StorageOptions storage;
  storage.memory_budget_bytes = 64 * 1024;
  Context ctx(4, 0, 0, storage);
  auto rdd = ctx.Parallelize(Iota(100000), 16).Map([](const int& x) {
    return x + 7;
  });
  rdd.Cache(StorageLevel::kMemoryAndDisk);

  auto first = rdd.Collect();
  const auto& m = ctx.metrics();
  EXPECT_LE(m.memory_high_water.load(), storage.memory_budget_bytes);
  EXPECT_GT(m.evictions.load(), 0u);
  EXPECT_GT(m.spilled_bytes.load(), 0u) << "evictions must spill, not drop";

  ctx.metrics().Reset();
  EXPECT_EQ(rdd.Collect(), first);
  EXPECT_GT(ctx.metrics().disk_reads.load(), 0u);
  EXPECT_EQ(ctx.metrics().recomputed_partitions.load(), 0u)
      << "spilled partitions come back from disk, never from lineage";
}

TEST(BoundedCacheTest, DiskOnlyHoldsNoMemory) {
  Context ctx(2, 0, 0, Budget(1 << 20));
  auto rdd = ctx.Parallelize(Iota(5000), 4);
  auto mapped = rdd.Map([](const int& x) { return x * 3; });
  mapped.Cache(StorageLevel::kDiskOnly);
  auto first = mapped.Collect();
  EXPECT_EQ(ctx.metrics().memory_high_water.load(), 0u)
      << "DISK_ONLY blocks must never be resident";
  EXPECT_GT(ctx.metrics().spilled_bytes.load(), 0u);

  ctx.metrics().Reset();
  EXPECT_EQ(mapped.Collect(), first);
  EXPECT_GT(ctx.metrics().disk_reads.load(), 0u);
  EXPECT_EQ(ctx.metrics().recomputed_partitions.load(), 0u);
}

TEST(BoundedCacheTest, PairRecordsSpillThroughCodec) {
  StorageOptions storage;
  storage.memory_budget_bytes = 16 * 1024;
  Context ctx(2, 0, 0, storage);
  std::vector<std::pair<uint64_t, std::string>> data;
  for (int i = 0; i < 4000; ++i) {
    data.emplace_back(static_cast<uint64_t>(i), std::string(8, 'a' + i % 26));
  }
  auto pairs = ctx.Parallelize(data, 8);
  pairs.Cache(StorageLevel::kMemoryAndDisk);
  auto first = pairs.Collect();
  EXPECT_GT(ctx.metrics().spilled_bytes.load(), 0u);
  ctx.metrics().Reset();
  EXPECT_EQ(pairs.Collect(), first);
  EXPECT_GT(ctx.metrics().disk_reads.load(), 0u);
  EXPECT_EQ(ctx.metrics().recomputed_partitions.load(), 0u);
}

TEST(BoundedCacheTest, UnspillableTypeDegradesToMemoryOnly) {
  StorageOptions storage;
  storage.memory_budget_bytes = 8 * 1024;
  Context ctx(2, 0, 0, storage);
  // std::function records have no byte codec: MEMORY_AND_DISK degrades
  // to MEMORY_ONLY (with a warning) and eviction falls back to lineage.
  std::vector<int> seeds = Iota(2000);
  auto rdd = ctx.Parallelize(seeds, 8).Map([](const int& x) {
    return std::function<int()>([x] { return x + 1; });
  });
  rdd.Cache(StorageLevel::kMemoryAndDisk);
  auto run = [&] {
    int sum = 0;
    for (const auto& f : rdd.Collect()) sum += f();
    return sum;
  };
  const int first = run();
  EXPECT_EQ(ctx.metrics().spilled_bytes.load(), 0u)
      << "nothing spillable must ever hit disk";
  ctx.metrics().Reset();
  EXPECT_EQ(run(), first);
  EXPECT_EQ(ctx.metrics().disk_reads.load(), 0u);
}

TEST(BoundedCacheTest, FailExecutorDropsSpilledCopiesToo) {
  Context ctx(4, 0, 0, Budget(1));
  // Budget of one byte: every MEMORY_AND_DISK partition lives on disk.
  auto rdd = ctx.Parallelize(Iota(8000), 8).Map([](const int& x) {
    return x - 5;
  });
  rdd.Cache(StorageLevel::kMemoryAndDisk);
  auto first = rdd.Collect();
  ASSERT_GT(ctx.metrics().spilled_bytes.load(), 0u);

  // Worker 2's local disk dies with it: partitions 2 and 6 are gone
  // entirely and must recompute; the other six read back from disk.
  ctx.FailExecutor(2);
  ctx.metrics().Reset();
  EXPECT_EQ(rdd.Collect(), first);
  EXPECT_EQ(ctx.metrics().recomputed_partitions.load(), 2u);
  EXPECT_GT(ctx.metrics().disk_reads.load(), 0u);
}

TEST(SpillCodecTest, PartitionFileRoundTrip) {
  using Rec = std::pair<uint64_t, std::vector<double>>;
  std::vector<Rec> recs;
  for (uint64_t i = 0; i < 100; ++i) {
    recs.emplace_back(i, std::vector<double>(i % 7, 0.5 * i));
  }
  const std::string path = ::testing::TempDir() + "spangle_codec_rt.spill";
  const auto bytes = codec::WritePartitionFile<Rec>(recs, path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(*bytes, 0u);
  auto back = codec::ReadPartitionFile<Rec>(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, recs);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spangle
