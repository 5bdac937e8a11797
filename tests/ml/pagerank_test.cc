#include "ml/pagerank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "workload/graph_gen.h"

namespace spangle {
namespace {

/// Driver-side reference: the same basic power method.
std::vector<double> ReferencePageRank(
    uint64_t n, const std::vector<std::pair<uint64_t, uint64_t>>& edges,
    double damping, int iterations) {
  std::vector<uint64_t> outdeg(n, 0);
  for (const auto& [src, dst] : edges) ++outdeg[src];
  std::vector<double> p(n, 1.0 / static_cast<double>(n));
  const double teleport = (1.0 - damping) / static_cast<double>(n);
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> next(n, teleport);
    for (const auto& [src, dst] : edges) {
      next[dst] += damping * p[src] / static_cast<double>(outdeg[src]);
    }
    p = next;
  }
  return p;
}

TEST(PageRankTest, MatchesReferenceOnSmallGraph) {
  Context ctx(2);
  // A tiny graph with a sink and a hub.
  std::vector<std::pair<uint64_t, uint64_t>> edges = {
      {0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 2}};
  PageRankOptions options;
  options.block = 2;
  options.iterations = 15;
  auto result = *PageRank(&ctx, 4, edges, options);
  auto want = ReferencePageRank(4, edges, options.damping, 15);
  ASSERT_EQ(result.ranks.size(), 4u);
  for (int v = 0; v < 4; ++v) {
    EXPECT_NEAR(result.ranks[v], want[v], 1e-10) << "vertex " << v;
  }
  EXPECT_GT(result.ranks[2], result.ranks[1]) << "2 has the most in-links";
}

TEST(PageRankTest, MatchesReferenceOnRmat) {
  Context ctx(2);
  RmatOptions g;
  g.scale = 7;  // 128 vertices
  g.edges_per_vertex = 6;
  auto edges = GenerateRmat(g);
  const uint64_t n = 128;
  PageRankOptions options;
  options.block = 32;
  options.iterations = 10;
  auto result = *PageRank(&ctx, n, edges, options);
  auto want = ReferencePageRank(n, edges, options.damping, 10);
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(result.ranks[v], want[v], 1e-10);
  }
}

TEST(PageRankTest, SuperSparseModeAgrees) {
  Context ctx(2);
  RmatOptions g;
  g.scale = 7;
  g.edges_per_vertex = 2;
  auto edges = GenerateRmat(g);
  PageRankOptions flat;
  flat.block = 64;
  flat.iterations = 5;
  PageRankOptions hier = flat;
  hier.super_sparse = true;
  auto a = *PageRank(&ctx, 128, edges, flat);
  auto b = *PageRank(&ctx, 128, edges, hier);
  for (uint64_t v = 0; v < 128; ++v) {
    EXPECT_NEAR(a.ranks[v], b.ranks[v], 1e-12);
  }
  EXPECT_EQ(a.iteration_seconds.size(), 5u);
  EXPECT_GT(a.matrix_bytes, 0u);
}

TEST(PageRankTest, RanksFormADistributionUpToDanglingLoss) {
  Context ctx(2);
  auto edges = GenerateUniformGraph(64, 400, 3);
  PageRankOptions options;
  options.block = 16;
  options.iterations = 20;
  auto result = *PageRank(&ctx, 64, edges, options);
  double sum = 0;
  for (double r : result.ranks) {
    EXPECT_GT(r, 0.0);
    sum += r;
  }
  // The basic variant leaks dangling mass, so sum <= 1.
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(sum, 0.5);
}

/// FNV-1a over the bit patterns of `ranks`: equal hashes mean equal bits.
uint64_t HashOfBits(const std::vector<double>& ranks) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double r : ranks) {
    uint64_t bits = 0;
    std::memcpy(&bits, &r, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Pins the ranks bit for bit. A'v sums one partial per row block per
// partition in tile order (tiles in the order their first edge appears),
// reduces once, and adds each block onto 0.0; with dangling
// redistribution the rank sum also adds the result's blocks in ascending
// order. A change to either order changes these hashes.
TEST(PageRankTest, RanksArePinnedBitForBit) {
  RmatOptions g;
  g.scale = 10;  // 1024 vertices, 16 row blocks over 5 partitions
  g.edges_per_vertex = 8;
  const auto edges = GenerateRmat(g);
  PageRankOptions options;
  options.block = 64;
  options.iterations = 12;
  options.num_partitions = 5;
  for (const bool super_sparse : {false, true}) {
    SCOPED_TRACE(super_sparse ? "super-sparse" : "flat");
    Context ctx(3);
    options.super_sparse = super_sparse;
    const auto result = *PageRank(&ctx, 1024, edges, options);
    EXPECT_EQ(HashOfBits(result.ranks), 0xf255792c76786ea6ULL);
  }
  Context ctx(3);
  options.super_sparse = false;
  options.redistribute_dangling = true;
  const auto result = *PageRank(&ctx, 1024, edges, options);
  EXPECT_EQ(HashOfBits(result.ranks), 0x85addea840d6602eULL);
}

TEST(PageRankTest, EmptyGraphFails) {
  Context ctx(2);
  EXPECT_FALSE(PageRank(&ctx, 0, {}, {}).ok());
}

}  // namespace
}  // namespace spangle
