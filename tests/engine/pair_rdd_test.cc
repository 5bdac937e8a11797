#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "first_seen_order.h"

namespace spangle {
namespace {

using KV = std::pair<uint64_t, int>;

std::vector<KV> MakePairs(int n) {
  std::vector<KV> out;
  for (int i = 0; i < n; ++i) out.emplace_back(i % 10, i);
  return out;
}

TEST(PartitionerTest, HashCoversAllPartitions) {
  HashPartitioner<uint64_t> p(8);
  std::vector<int> counts(8, 0);
  for (uint64_t k = 0; k < 1000; ++k) counts[p.PartitionFor(k)]++;
  for (int c : counts) EXPECT_GT(c, 50);  // roughly uniform
}

TEST(PartitionerTest, EqualsComparesSchemeAndCount) {
  HashPartitioner<uint64_t> a(4), b(4), c(8);
  ModuloPartitioner<uint64_t> m(4);
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_FALSE(a.Equals(m));
}

TEST(PartitionerTest, RangePreservesOrder) {
  RangePartitioner<uint64_t> p(4, 99);
  int prev = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    int cur = p.PartitionFor(k);
    EXPECT_GE(cur, prev);
    EXPECT_LT(cur, 4);
    prev = cur;
  }
  EXPECT_EQ(prev, 3) << "last partition must be used";
}

TEST(PartitionerTest, ModuloIsReversible) {
  ModuloPartitioner<uint64_t> p(6);
  // Eq. 2: C = nP * rID + pID places chunk C on partition pID.
  for (uint64_t rid = 0; rid < 10; ++rid) {
    for (uint64_t pid = 0; pid < 6; ++pid) {
      EXPECT_EQ(p.PartitionFor(6 * rid + pid), static_cast<int>(pid));
    }
  }
}

TEST(PairRddTest, ReduceByKeySums) {
  Context ctx(2);
  auto pairs = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(100), 4));
  auto reduced =
      pairs.ReduceByKey([](const int& a, const int& b) { return a + b; });
  auto m = reduced.CollectAsMap();
  ASSERT_EQ(m.size(), 10u);
  // Key k holds k, k+10, ..., k+90: sum = 10k + 450.
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(m[k], static_cast<int>(10 * k + 450));
  }
}

TEST(PairRddTest, ReduceByKeyUsesMapSideCombine) {
  Context ctx(2);
  auto pairs = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(1000), 4));
  ctx.metrics().Reset();
  pairs.ReduceByKey([](const int& a, const int& b) { return a + b; }).Count();
  // 1000 records, 10 keys, 4 map tasks: at most 40 combined records move.
  EXPECT_LE(ctx.metrics().shuffle_records.load(), 40u);
}

TEST(PairRddTest, GroupByKeyGathersAll) {
  Context ctx(2);
  auto pairs = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(100), 4));
  auto grouped = pairs.GroupByKey();
  auto m = grouped.CollectAsMap();
  ASSERT_EQ(m.size(), 10u);
  for (auto& [k, vs] : m) EXPECT_EQ(vs.size(), 10u);
}

TEST(PairRddTest, MapValuesPreservesKeysAndPartitioner) {
  Context ctx(2);
  auto p = std::make_shared<HashPartitioner<uint64_t>>(4);
  auto pairs = ctx.ParallelizePairs<uint64_t, int>(MakePairs(20), p);
  auto mapped = pairs.MapValues([](const int& v) { return v * 2; });
  EXPECT_TRUE(mapped.partitioner() != nullptr);
  EXPECT_TRUE(mapped.partitioner()->Equals(*p));
  auto collected = mapped.Collect();
  EXPECT_EQ(collected.size(), 20u);
}

TEST(PairRddTest, PartitionByPlacesKeys) {
  Context ctx(2);
  auto pairs = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(100), 4));
  auto p = std::make_shared<HashPartitioner<uint64_t>>(5);
  auto placed = pairs.PartitionBy(p);
  EXPECT_EQ(placed.num_partitions(), 5);
  // Every record must be in the partition its key hashes to.
  auto parts = placed.AsRdd().CollectPartitions();
  for (int i = 0; i < 5; ++i) {
    for (const auto& [k, v] : parts[i]) {
      EXPECT_EQ(p->PartitionFor(k), i);
    }
  }
}

TEST(PairRddTest, JoinMatchesKeys) {
  Context ctx(2);
  std::vector<KV> left = {{1, 10}, {2, 20}, {3, 30}};
  std::vector<std::pair<uint64_t, std::string>> right = {
      {2, "b"}, {3, "c"}, {4, "d"}};
  auto l = ToPair<uint64_t, int>(ctx.Parallelize(left, 2));
  auto r = ToPair<uint64_t, std::string>(ctx.Parallelize(right, 3));
  auto joined = l.Join(r).CollectAsMap();
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[2].first, 20);
  EXPECT_EQ(joined[2].second, "b");
  EXPECT_EQ(joined[3].first, 30);
  EXPECT_EQ(joined[3].second, "c");
}

TEST(PairRddTest, JoinDuplicateKeysProducesCrossProduct) {
  Context ctx(2);
  std::vector<KV> left = {{1, 10}, {1, 11}};
  std::vector<KV> right = {{1, 100}, {1, 101}, {1, 102}};
  auto l = ToPair<uint64_t, int>(ctx.Parallelize(left, 1));
  auto r = ToPair<uint64_t, int>(ctx.Parallelize(right, 1));
  EXPECT_EQ(l.Join(r).Count(), 6u);
}

TEST(PairRddTest, LocalJoinOfCoPartitionedShufflesNothing) {
  Context ctx(2);
  auto p = std::make_shared<HashPartitioner<uint64_t>>(4);
  auto l = ctx.ParallelizePairs<uint64_t, int>(MakePairs(100), p);
  auto r = ctx.ParallelizePairs<uint64_t, int>(MakePairs(100), p);
  ctx.metrics().Reset();
  auto joined = l.Join(r);
  const size_t n = joined.Count();
  EXPECT_EQ(n, 1000u);  // 10 keys x 10 x 10 matches
  EXPECT_EQ(ctx.metrics().shuffles.load(), 0u)
      << "co-partitioned join must be local (paper Sec. VI-A)";
  EXPECT_EQ(ctx.metrics().shuffle_bytes.load(), 0u);
}

TEST(PairRddTest, NonCoPartitionedJoinShuffles) {
  Context ctx(2);
  auto l = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(100), 4));
  auto r = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(100), 3));
  ctx.metrics().Reset();
  l.Join(r).Count();
  EXPECT_GE(ctx.metrics().shuffles.load(), 2u);
  EXPECT_GT(ctx.metrics().shuffle_bytes.load(), 0u);
}

TEST(PairRddTest, CoGroupCollectsBothSides) {
  Context ctx(2);
  std::vector<KV> left = {{1, 10}, {1, 11}, {2, 20}};
  std::vector<KV> right = {{1, 100}, {3, 300}};
  auto l = ToPair<uint64_t, int>(ctx.Parallelize(left, 2));
  auto r = ToPair<uint64_t, int>(ctx.Parallelize(right, 2));
  auto m = l.CoGroup(r).CollectAsMap();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[1].first.size(), 2u);
  EXPECT_EQ(m[1].second.size(), 1u);
  EXPECT_EQ(m[2].first.size(), 1u);
  EXPECT_EQ(m[2].second.size(), 0u);
  EXPECT_EQ(m[3].first.size(), 0u);
  EXPECT_EQ(m[3].second.size(), 1u);
}

TEST(PairRddTest, LookupWithPartitionerScansOnePartition) {
  Context ctx(2);
  auto p = std::make_shared<ModuloPartitioner<uint64_t>>(8);
  std::vector<KV> data;
  for (int i = 0; i < 64; ++i) data.emplace_back(i, i * 100);
  auto pairs = ctx.ParallelizePairs<uint64_t, int>(data, p);
  auto vals = pairs.Lookup(13);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 1300);
}

TEST(PairRddTest, LookupWithoutPartitionerStillFinds) {
  Context ctx(2);
  auto pairs = ToPair<uint64_t, int>(ctx.Parallelize(MakePairs(50), 4));
  auto vals = pairs.Lookup(3);
  EXPECT_EQ(vals.size(), 5u);  // keys repeat every 10
}

TEST(PairRddTest, KeysAndValues) {
  Context ctx(2);
  std::vector<KV> data = {{5, 50}, {6, 60}};
  auto pairs = ToPair<uint64_t, int>(ctx.Parallelize(data, 1));
  EXPECT_EQ(pairs.Keys().Collect(), (std::vector<uint64_t>{5, 6}));
  EXPECT_EQ(pairs.Values().Collect(), (std::vector<int>{50, 60}));
}

TEST(PairRddTest, FilterPreservesPartitioner) {
  Context ctx(2);
  auto p = std::make_shared<HashPartitioner<uint64_t>>(4);
  auto pairs = ctx.ParallelizePairs<uint64_t, int>(MakePairs(40), p);
  auto filtered = pairs.Filter([](const KV& kv) { return kv.second > 10; });
  ASSERT_TRUE(filtered.partitioner() != nullptr);
  EXPECT_TRUE(filtered.partitioner()->Equals(*p));
}

TEST(PairRddTest, GroupingsEmitKeysInFirstSeenOrder) {
  Context ctx(3);
  order_contract::ExpectFirstSeenOrder(&ctx);
}

}  // namespace
}  // namespace spangle
