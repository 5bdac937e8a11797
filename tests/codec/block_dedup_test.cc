// Content-addressed block identity: a first commit, a retried task, a
// partial stage rerun, and an identically re-planned stage all produce
// the same frame bytes, so they must collapse to ONE stored block — the
// duplicate commit becomes a counted shuffle_block_dedup_hits instead of
// a second copy. Also covers the mapped-vs-owned accounting split: mmap-backed
// and dedup-shared bytes stay outside the memory budget.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "codec/columnar.h"
#include "engine/block_manager.h"
#include "engine/engine.h"

namespace spangle {
namespace {

using Record = std::pair<int64_t, double>;

std::vector<Record> SomeRecords(int n, int salt = 0) {
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    records.emplace_back(i * 3 + salt, (i % 10 == 0) ? i * 0.5 : 0.0);
  }
  return records;
}

BlockManager::DataPtr AsPtr(std::vector<Record> records) {
  return std::make_shared<const std::vector<Record>>(std::move(records));
}

// The scenario the wire format exists for: the first attempt commits
// partition (1, 0); a task retry and a partial stage rerun commit the
// identical partition again. One block stays stored, every duplicate is
// a counted hash hit.
TEST(BlockDedup, RetryAndRerunShareOneBlock) {
  EngineMetrics metrics;
  BlockManager bm({}, 2, &metrics);
  const auto records = SomeRecords(500);
  const codec::EncodedFrame frame = codec::EncodePartitionFrame(records);
  ASSERT_NE(frame.content_hash, 0u);

  EXPECT_TRUE(bm.PutIfAbsent({1, 0}, AsPtr(records), 4000,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             /*recomputable=*/false, frame.content_hash))
      << "the first commit must store the block";
  EXPECT_EQ(bm.ContentHashOf({1, 0}), frame.content_hash);
  const uint64_t owned_after_first = bm.bytes_in_memory();

  // A task retry, then a partial stage rerun: same id, same bytes.
  EXPECT_FALSE(bm.PutIfAbsent({1, 0}, AsPtr(records), 4000,
                              StorageLevel::kMemoryOnly, nullptr, nullptr,
                              false, frame.content_hash));
  EXPECT_FALSE(bm.PutIfAbsent({1, 0}, AsPtr(records), 4000,
                              StorageLevel::kMemoryOnly, nullptr, nullptr,
                              false, frame.content_hash));
  EXPECT_EQ(metrics.shuffle_block_dedup_hits.load(), 2u);
  EXPECT_EQ(bm.num_resident_blocks(), 1u);
  EXPECT_EQ(bm.bytes_in_memory(), owned_after_first)
      << "duplicate commits must not grow the budget";
}

// An identically re-planned stage stores the same content under a NEW
// block id: the new id must adopt the existing payload (shared, unowned)
// instead of storing a second copy.
TEST(BlockDedup, ReplannedStageAdoptsExistingPayloadAcrossIds) {
  EngineMetrics metrics;
  BlockManager bm({}, 2, &metrics);
  const auto records = SomeRecords(500);
  const codec::EncodedFrame frame = codec::EncodePartitionFrame(records);

  bm.Put({7, 0}, AsPtr(records), 4000, StorageLevel::kMemoryOnly, nullptr,
         nullptr, /*recomputable=*/false, frame.content_hash);
  const uint64_t owned_before = bm.bytes_in_memory();

  EXPECT_FALSE(bm.PutIfAbsent({8, 0}, AsPtr(records), 4000,
                              StorageLevel::kMemoryOnly, nullptr, nullptr,
                              false, frame.content_hash))
      << "a cross-id content match must dedup, not store";
  EXPECT_EQ(metrics.shuffle_block_dedup_hits.load(), 1u);
  EXPECT_EQ(bm.bytes_in_memory(), owned_before)
      << "the adopted copy's bytes are unowned (shared payload)";
  EXPECT_GE(bm.bytes_mapped(), 4000u)
      << "shared bytes must be visible in the mapped/unowned gauge";
  // Both ids resolve, to the SAME payload object.
  auto a = bm.Get({7, 0});
  auto b = bm.Get({8, 0});
  ASSERT_NE(a.data, nullptr);
  EXPECT_EQ(a.data.get(), b.data.get());
  EXPECT_EQ(bm.ContentHashOf({8, 0}), frame.content_hash);
}

// Different content under the same id must NOT dedup (hash differs), and
// a dropped block's stale index entry must not resurrect dead payloads.
TEST(BlockDedup, DifferentContentAndStaleEntriesDoNotDedup) {
  EngineMetrics metrics;
  BlockManager bm({}, 2, &metrics);
  const codec::EncodedFrame f1 =
      codec::EncodePartitionFrame(SomeRecords(100, /*salt=*/1));
  const codec::EncodedFrame f2 =
      codec::EncodePartitionFrame(SomeRecords(100, /*salt=*/2));
  ASSERT_NE(f1.content_hash, f2.content_hash);

  bm.Put({1, 0}, AsPtr(SomeRecords(100, 1)), 800, StorageLevel::kMemoryOnly,
         nullptr, nullptr, false, f1.content_hash);
  // Same hash indexed, but its block is gone: the commit must store.
  bm.DropNode(1);
  EXPECT_TRUE(bm.PutIfAbsent({2, 0}, AsPtr(SomeRecords(100, 1)), 800,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             false, f1.content_hash))
      << "a stale content-index entry must not count as a hit";
  EXPECT_EQ(metrics.shuffle_block_dedup_hits.load(), 0u);

  // Unhashed commits (hash 0) never consult the index.
  EXPECT_TRUE(bm.PutIfAbsent({3, 0}, AsPtr(SomeRecords(50)), 400,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             false, /*content_hash=*/0));
  EXPECT_TRUE(bm.PutIfAbsent({4, 0}, AsPtr(SomeRecords(50)), 400,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             false, 0));
  EXPECT_EQ(metrics.shuffle_block_dedup_hits.load(), 0u);
}

// Spill readback through a load function that keeps the payload
// file-backed: the re-admitted bytes are mapped, not owned, so they
// bypass the budget and show up in bytes_mapped — and evicting a fully
// mapped block is pointless, so the evictor must skip it.
TEST(BlockDedup, MappedReadbackBytesAreBudgetExempt) {
  EngineMetrics metrics;
  StorageOptions storage;
  storage.memory_budget_bytes = 1000;
  BlockManager bm(storage, 2, &metrics);

  const auto spill = [](const void* data,
                        const std::string& path) -> Result<uint64_t> {
    const auto* records = static_cast<const std::vector<Record>*>(data);
    return codec::WritePartitionFile(*records, path);
  };
  // Loads the frame as a file-backed mapping and reports every byte of
  // the (estimated) payload as mapped.
  const auto load = [](const std::string& path) -> BlockManager::Loaded {
    auto buf = codec::ReadFrameFile(path);
    SPANGLE_CHECK(buf.ok());
    auto holder =
        std::make_shared<const codec::FrameBuffer>(*std::move(buf));
    return BlockManager::Loaded(
        std::static_pointer_cast<const void>(holder), /*mapped=*/800);
  };

  bm.Put({1, 0}, AsPtr(SomeRecords(200)), 800, StorageLevel::kMemoryAndDisk,
         spill, load, /*recomputable=*/false);
  EXPECT_EQ(bm.bytes_in_memory(), 800u);
  EXPECT_EQ(bm.bytes_mapped(), 0u);

  // Evict it (spills to disk), then read it back via the mapping loader.
  bm.Put({2, 0}, AsPtr(SomeRecords(150)), 600, StorageLevel::kMemoryOnly,
         nullptr, nullptr);
  EXPECT_GT(metrics.spilled_bytes.load(), 0u);
  auto got = bm.Get({1, 0});
  ASSERT_NE(got.data, nullptr);
  EXPECT_FALSE(got.was_lost);
  EXPECT_EQ(bm.bytes_mapped(), 800u)
      << "file-backed readback bytes belong in the mapped gauge";
  EXPECT_LE(bm.bytes_in_memory(), 1000u)
      << "mapped bytes must not count against the budget";

  // A new owned block must evict the OWNED block, not the mapped one:
  // dropping file-backed bytes frees no budget.
  bm.Put({3, 0}, AsPtr(SomeRecords(160)), 900, StorageLevel::kMemoryOnly,
         nullptr, nullptr);
  EXPECT_NE(bm.Get({1, 0}).data, nullptr)
      << "the fully mapped block must survive eviction pressure";
  EXPECT_EQ(metrics.bytes_mapped.load(), bm.bytes_mapped());
}

// End-to-end LOCAL-mode proof: losing one executor's shuffle shard
// forces a stage rerun that re-commits every partition; the partitions
// that survived on the other executor re-encode to the same content
// address and must fold into the existing blocks as dedup hits.
TEST(BlockDedup, LocalStageRerunDedupsSurvivingPartitions) {
  Context ctx(2, 4);
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_executor = [](const ChaosTaskInfo& t) -> int {
    if (t.stage != "collect") return -1;
    if (t.task != 0 || t.attempt != 0 || t.stage_attempt != 0) return -1;
    return 0;
  };
  ctx.set_chaos_policy(policy);

  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  auto pairs = ctx.Parallelize(std::move(data)).Map([](const int& v) {
    return std::pair<int, int>(v % 17, 1);
  });
  auto counts = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  const auto result = counts.Collect();
  EXPECT_FALSE(result.empty());
  EXPECT_GE(ctx.metrics().stage_reruns.load(), 1u)
      << "the dropped shard must force a lineage rerun";
  EXPECT_GT(ctx.metrics().shuffle_block_dedup_hits.load(), 0u)
      << "surviving partitions must dedup on the rerun's re-commit";
  EXPECT_GT(ctx.metrics().codec_bytes_raw.load(), 0u);
  EXPECT_GT(ctx.metrics().codec_bytes_encoded.load(), 0u);
}

}  // namespace
}  // namespace spangle
