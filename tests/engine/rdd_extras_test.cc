#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "engine/engine.h"

namespace spangle {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(SampleTest, FractionRoughlyRespected) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(Iota(10000), 8);
  const size_t n = rdd.Sample(0.3, 7).Count();
  EXPECT_GT(n, 2600u);
  EXPECT_LT(n, 3400u);
  EXPECT_EQ(rdd.Sample(0.0, 7).Count(), 0u);
  EXPECT_EQ(rdd.Sample(1.0, 7).Count(), 10000u);
}

TEST(SampleTest, DeterministicPerSeed) {
  Context ctx(2);
  auto rdd = ctx.Parallelize(Iota(1000), 4);
  EXPECT_EQ(rdd.Sample(0.5, 11).Collect(), rdd.Sample(0.5, 11).Collect());
  EXPECT_NE(rdd.Sample(0.5, 11).Collect(), rdd.Sample(0.5, 12).Collect());
}

TEST(SampleTest, IndependentOfWorkerCount) {
  // Per-partition streams are a pure function of (seed, partition), so
  // the sample must not change with the executor pool size.
  Context ctx2(2), ctx8(8);
  auto a = ctx2.Parallelize(Iota(5000), 16).Sample(0.3, 99).Collect();
  auto b = ctx8.Parallelize(Iota(5000), 16).Sample(0.3, 99).Collect();
  EXPECT_EQ(a, b);
}

TEST(SampleTest, PartitionStreamsAreDecorrelated) {
  Context ctx(4);
  const int kParts = 8, kPerPart = 500;
  auto rdd = ctx.Parallelize(Iota(kParts * kPerPart), kParts);
  auto sampled = rdd.Sample(0.5, 3).Collect();
  // Reduce each sampled global index to its in-partition offset; if the
  // partitions shared one RNG stream (the old seed*K+idx scheme with a
  // colliding K), every partition would select identical offsets.
  std::vector<std::set<int>> offsets(kParts);
  for (int v : sampled) offsets[v / kPerPart].insert(v % kPerPart);
  int identical_pairs = 0;
  for (int p = 1; p < kParts; ++p) {
    if (offsets[p] == offsets[0]) ++identical_pairs;
  }
  EXPECT_EQ(identical_pairs, 0) << "partitions reused an RNG stream";
}

TEST(DistinctTest, RemovesDuplicates) {
  Context ctx(2);
  std::vector<int> data;
  for (int i = 0; i < 300; ++i) data.push_back(i % 17);
  auto rdd = ctx.Parallelize(data, 5);
  auto unique = rdd.Distinct().Collect();
  std::set<int> got(unique.begin(), unique.end());
  EXPECT_EQ(unique.size(), 17u);
  EXPECT_EQ(got.size(), 17u);
}

TEST(DistinctTest, EmptyAndSingleton) {
  Context ctx(2);
  EXPECT_EQ(ctx.Parallelize(std::vector<int>{}, 3).Distinct().Count(), 0u);
  EXPECT_EQ(ctx.Parallelize(std::vector<int>{5, 5, 5}, 3).Distinct().Count(),
            1u);
}

}  // namespace
}  // namespace spangle
