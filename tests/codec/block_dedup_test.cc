// Content-addressed block identity: a first commit, a retried task and a
// partial stage rerun of the same block id produce the same frame bytes,
// so they must collapse to ONE stored block — the duplicate commit
// becomes a counted shuffle_block_dedup_hits instead of a second copy.
// Only the DISTRIBUTED data plane hashes shuffle blocks; LOCAL shuffle
// output is stored unencoded and never counts a dedup.

#include <gtest/gtest.h>

#include <map>
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

// Different content under the same id must NOT dedup (hash differs),
// and the same content under a different id is a block of its own.
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
  EXPECT_FALSE(bm.PutIfAbsent({1, 0}, AsPtr(SomeRecords(100, 2)), 800,
                              StorageLevel::kMemoryOnly, nullptr, nullptr,
                              false, f2.content_hash))
      << "the first committed payload wins";
  EXPECT_EQ(bm.ContentHashOf({1, 0}), f1.content_hash);
  EXPECT_TRUE(bm.PutIfAbsent({2, 0}, AsPtr(SomeRecords(100, 1)), 800,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             false, f1.content_hash))
      << "another id with the same content stores its own copy";
  EXPECT_EQ(bm.bytes_in_memory(), 1600u);
  EXPECT_EQ(metrics.shuffle_block_dedup_hits.load(), 0u);

  // Unhashed commits (hash 0) never count a dedup.
  EXPECT_TRUE(bm.PutIfAbsent({3, 0}, AsPtr(SomeRecords(50)), 400,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             false, /*content_hash=*/0));
  EXPECT_TRUE(bm.PutIfAbsent({4, 0}, AsPtr(SomeRecords(50)), 400,
                             StorageLevel::kMemoryOnly, nullptr, nullptr,
                             false, 0));
  EXPECT_EQ(metrics.shuffle_block_dedup_hits.load(), 0u);
}

// One key over 8 reduce partitions leaves 7 of them empty. LOCAL shuffle
// output is stored as records, never encoded, so the identical empty
// partitions are separate blocks and no commit counts as a dedup.
TEST(BlockDedup, FaultFreeLocalShuffleNeverEncodesOrDedups) {
  Context ctx(2, 8);
  auto pairs = ctx.Parallelize(std::vector<int>(1000, 1), 8)
                   .Map([](const int& v) { return std::pair<int, int>(0, v); });
  auto sums = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  ASSERT_EQ(sums.num_partitions(), 8);
  EXPECT_EQ(sums.Collect(), (std::vector<std::pair<int, int>>{{0, 1000}}));
  EXPECT_EQ(ctx.metrics().shuffle_block_dedup_hits.load(), 0u);
  EXPECT_EQ(ctx.metrics().codec_bytes_raw.load(), 0u);
  EXPECT_EQ(ctx.metrics().codec_bytes_encoded.load(), 0u);
}

// Losing one executor's shuffle shard forces a stage rerun that
// re-commits every partition; the partitions that survived on the other
// executor keep their stored blocks. Nothing is encoded along the way.
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
  std::map<int, int> got;
  for (const auto& [k, v] : counts.Collect()) got[k] = v;
  std::map<int, int> want;
  for (int k = 0; k < 17; ++k) want[k] = 1000 / 17 + (k < 1000 % 17 ? 1 : 0);
  EXPECT_EQ(got, want);
  EXPECT_GE(ctx.metrics().stage_reruns.load(), 1u)
      << "the dropped shard must force a lineage rerun";
  EXPECT_EQ(ctx.metrics().codec_bytes_raw.load(), 0u)
      << "a LOCAL rerun stores records, it never encodes them";
  EXPECT_EQ(ctx.metrics().codec_bytes_encoded.load(), 0u);
}

}  // namespace
}  // namespace spangle
