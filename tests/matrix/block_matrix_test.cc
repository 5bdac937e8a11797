#include "matrix/block_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include "common/random.h"

namespace spangle {
namespace {

std::vector<MatrixEntry> RandomEntries(uint64_t rows, uint64_t cols,
                                       double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<MatrixEntry> entries;
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      if (rng.NextBool(density)) {
        entries.push_back({r, c, rng.NextDouble(-2, 2)});
      }
    }
  }
  return entries;
}

std::vector<double> DenseOf(const std::vector<MatrixEntry>& entries,
                            uint64_t rows, uint64_t cols) {
  std::vector<double> m(rows * cols, 0.0);
  for (const auto& e : entries) m[e.row * cols + e.col] = e.value;
  return m;
}

std::vector<double> RefMultiply(const std::vector<double>& a,
                                const std::vector<double>& b, uint64_t m,
                                uint64_t k, uint64_t n) {
  std::vector<double> out(m * n, 0.0);
  for (uint64_t i = 0; i < m; ++i) {
    for (uint64_t j = 0; j < k; ++j) {
      const double av = a[i * k + j];
      if (av == 0.0) continue;
      for (uint64_t c = 0; c < n; ++c) out[i * n + c] += av * b[j * n + c];
    }
  }
  return out;
}

void ExpectDenseNear(const std::vector<double>& got,
                     const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << "index " << i;
  }
}

TEST(BlockMatrixTest, FromEntriesBasics) {
  Context ctx(2);
  auto entries = RandomEntries(20, 14, 0.2, 1);
  auto m = *BlockMatrix::FromEntries(&ctx, 20, 14, 8, entries);
  EXPECT_EQ(m.rows(), 20u);
  EXPECT_EQ(m.cols(), 14u);
  EXPECT_EQ(m.num_row_blocks(), 3u);
  EXPECT_EQ(m.num_col_blocks(), 2u);
  EXPECT_EQ(m.NumNonZero(), entries.size());
  for (const auto& e : entries) {
    EXPECT_DOUBLE_EQ(m.Get(e.row, e.col), e.value);
  }
  EXPECT_DOUBLE_EQ(m.Get(0, 13), DenseOf(entries, 20, 14)[13]);
}

TEST(BlockMatrixTest, ZeroEntriesNotStored) {
  Context ctx(2);
  std::vector<MatrixEntry> entries = {{0, 0, 0.0}, {1, 1, 5.0}};
  auto m = *BlockMatrix::FromEntries(&ctx, 4, 4, 2, entries);
  EXPECT_EQ(m.NumNonZero(), 1u) << "zero is invalid (Sec. IV-A)";
}

TEST(BlockMatrixTest, ValidatesInput) {
  Context ctx(2);
  EXPECT_FALSE(BlockMatrix::FromEntries(&ctx, 0, 4, 2, {}).ok());
  EXPECT_FALSE(
      BlockMatrix::FromEntries(&ctx, 4, 4, 2, {{5, 0, 1.0}}).ok());
}

TEST(BlockMatrixTest, RejectsTilesOf2To32Cells) {
  Context ctx(2);
  const uint64_t k = uint64_t{1} << 16;
  auto exact = BlockMatrix::FromEntries(&ctx, k, k, k, {});
  EXPECT_TRUE(exact.status().IsInvalidArgument()) << exact.status().ToString();
  EXPECT_TRUE(BlockMatrix::FromEntries(&ctx, k, k, k - 1, {}).ok());
}

TEST(BlockMatrixTest, AddAndSubtract) {
  Context ctx(2);
  auto ea = RandomEntries(12, 12, 0.3, 2);
  auto eb = RandomEntries(12, 12, 0.3, 3);
  auto a = *BlockMatrix::FromEntries(&ctx, 12, 12, 5, ea);
  auto b = *BlockMatrix::FromEntries(&ctx, 12, 12, 5, eb);
  auto sum = *a.Add(b);
  auto diff = *a.Subtract(b);
  auto da = DenseOf(ea, 12, 12), db = DenseOf(eb, 12, 12);
  std::vector<double> want_sum(144), want_diff(144);
  for (int i = 0; i < 144; ++i) {
    want_sum[i] = da[i] + db[i];
    want_diff[i] = da[i] - db[i];
  }
  ExpectDenseNear(sum.ToDense(), want_sum);
  ExpectDenseNear(diff.ToDense(), want_diff);
}

TEST(BlockMatrixTest, AddIsShuffleFreeWhenCoPartitioned) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 32, 32, 8,
                                     RandomEntries(32, 32, 0.2, 4));
  auto b = *BlockMatrix::FromEntries(&ctx, 32, 32, 8,
                                     RandomEntries(32, 32, 0.2, 5));
  ctx.metrics().Reset();
  a.Add(b)->NumNonZero();
  EXPECT_EQ(ctx.metrics().shuffles.load(), 0u)
      << "addition is embarrassingly parallel (Sec. V-A4)";
}

TEST(BlockMatrixTest, HadamardSkipsZeroPairs) {
  Context ctx(2);
  std::vector<MatrixEntry> ea = {{0, 0, 2.0}, {1, 1, 3.0}, {2, 2, 4.0}};
  std::vector<MatrixEntry> eb = {{1, 1, 10.0}, {2, 2, 0.5}, {3, 3, 9.0}};
  auto a = *BlockMatrix::FromEntries(&ctx, 8, 8, 4, ea);
  auto b = *BlockMatrix::FromEntries(&ctx, 8, 8, 4, eb);
  auto h = *a.Hadamard(b);
  EXPECT_EQ(h.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(h.Get(1, 1), 30.0);
  EXPECT_DOUBLE_EQ(h.Get(2, 2), 2.0);
}

TEST(MultiplyTilesTest, MatchesDenseReference) {
  Rng rng(6);
  const uint32_t bs = 16;
  std::vector<std::pair<uint32_t, double>> ac, bc;
  for (uint32_t i = 0; i < bs * bs; ++i) {
    if (rng.NextBool(0.3)) ac.emplace_back(i, rng.NextDouble(-1, 1));
    if (rng.NextBool(0.3)) bc.emplace_back(i, rng.NextDouble(-1, 1));
  }
  Chunk a = Chunk::FromCells(bs * bs, ac, ChunkMode::kSparse);
  Chunk b = Chunk::FromCells(bs * bs, bc, ChunkMode::kSparse);
  auto cells = MultiplyTiles(a, b, bs);
  // Dense reference.
  std::vector<double> da(bs * bs, 0), db(bs * bs, 0), want(bs * bs, 0);
  for (auto& [o, v] : ac) da[o] = v;
  for (auto& [o, v] : bc) db[o] = v;
  for (uint32_t r = 0; r < bs; ++r) {
    for (uint32_t j = 0; j < bs; ++j) {
      for (uint32_t c = 0; c < bs; ++c) {
        want[r * bs + c] += da[r * bs + j] * db[j * bs + c];
      }
    }
  }
  std::vector<double> got(bs * bs, 0);
  for (auto& [o, v] : cells) got[o] = v;
  for (uint32_t i = 0; i < bs * bs; ++i) EXPECT_NEAR(got[i], want[i], 1e-9);
}

using Cells = std::vector<std::pair<uint32_t, double>>;

// out[r, c] += a[r, j] * b[j, c] with every output cell summed from 0.0
// in generation order: left cells in offset order, each streaming the
// right operand's row j in column order.
Cells InOrderProduct(const Cells& a, const Cells& b, uint32_t bs) {
  std::map<uint32_t, double> acc;
  for (const auto& [ao, av] : a) {
    for (const auto& [bo, bv] : b) {
      if (bo / bs != ao % bs) continue;
      acc[(ao / bs) * bs + bo % bs] += av * bv;
    }
  }
  return Cells(acc.begin(), acc.end());
}

Chunk Tile(uint32_t bs, const Cells& cells) {
  return Chunk::FromCells(bs * bs, cells,
                          Chunk::ChooseMode(bs * bs, cells.size()));
}

// True when MultiplyTiles takes its sparse (sorted-COO) branch.
bool FewProducts(const Chunk& a, const Chunk& b, uint32_t bs) {
  return a.num_valid() * b.num_valid() * 8 < uint64_t{bs} * bs;
}

TEST(MultiplyTilesTest, SuperSparseCollisionsMatchInOrderSums) {
  const uint32_t bs = 64;
  Rng rng(61);
  auto v = [&rng] { return rng.NextDouble(-3, 3); };
  // Row 3 of `a` meets columns 2 and 7 of `b` through four different j,
  // so several products land on one output offset; rows 17 and 63 and
  // the tile corners cover the offset edges.
  const Cells ac = {{3 * bs + 1, v()},  {3 * bs + 5, v()},
                    {3 * bs + 9, v()},  {3 * bs + 40, v()},
                    {17 * bs + 5, v()}, {17 * bs + 63, v()},
                    {63 * bs + 0, v()}, {63 * bs + 63, v()}};
  const Cells bc = {{0 * bs + 63, v()}, {1 * bs + 2, v()},
                    {1 * bs + 7, v()},  {5 * bs + 2, v()},
                    {5 * bs + 60, v()}, {9 * bs + 2, v()},
                    {9 * bs + 7, v()},  {40 * bs + 2, v()},
                    {63 * bs + 0, v()}, {63 * bs + 63, v()}};
  const Chunk a = Tile(bs, ac);
  const Chunk b = Tile(bs, bc);
  ASSERT_EQ(a.mode(), ChunkMode::kSuperSparse);
  ASSERT_EQ(b.mode(), ChunkMode::kSuperSparse);
  ASSERT_TRUE(FewProducts(a, b, bs));
  const Cells want = InOrderProduct(ac, bc, bs);
  ASSERT_EQ(want.size(), 9u);  // (3,2) and (3,7) each sum several products
  EXPECT_EQ(MultiplyTiles(a, b, bs), want);
}

TEST(MultiplyTilesTest, RandomSuperSparsePairsMatchInOrderSums) {
  const uint32_t bs = 64;
  Rng rng(62);
  for (int trial = 0; trial < 200; ++trial) {
    // Rows and columns from one small set, so that left columns meet
    // right rows and products collide often.
    const uint32_t lines[] = {0, 9, 21, 42, 63};
    auto draw = [&](size_t n) {
      std::map<uint32_t, double> cells;
      while (cells.size() < n) {
        const uint32_t r = lines[rng.NextBounded(5)];
        const uint32_t c = lines[rng.NextBounded(5)];
        cells[r * bs + c] = rng.NextDouble(-1, 1);
      }
      return Cells(cells.begin(), cells.end());
    };
    const Cells ac = draw(1 + rng.NextBounded(20));
    const Cells bc = draw(1 + rng.NextBounded(20));
    const Chunk a = Tile(bs, ac);
    const Chunk b = Tile(bs, bc);
    ASSERT_TRUE(FewProducts(a, b, bs)) << "trial " << trial;
    EXPECT_EQ(MultiplyTiles(a, b, bs), InOrderProduct(ac, bc, bs))
        << "trial " << trial;
  }
}

TEST(MultiplyTilesTest, EmptyAndLastCellTiles) {
  const uint32_t bs = 64;
  const uint32_t last = bs * bs - 1;
  const Cells only_last = {{last, 1.5}};
  const Cells row_63 = {{63 * bs + 0, 2.0}, {63 * bs + 63, -4.0}};
  const Cells col_63 = {{0 * bs + 63, 3.0}, {63 * bs + 63, 0.25}};
  const Chunk empty = Tile(bs, {});
  for (const Cells& other : {only_last, row_63, col_63}) {
    EXPECT_TRUE(MultiplyTiles(empty, Tile(bs, other), bs).empty());
    EXPECT_TRUE(MultiplyTiles(Tile(bs, other), empty, bs).empty());
  }
  // Cell (63, 63) times row 63 gives row 63; column 63 times it gives
  // column 63.
  const Chunk last_tile = Tile(bs, only_last);
  EXPECT_EQ(MultiplyTiles(last_tile, Tile(bs, row_63), bs),
            (Cells{{63 * bs + 0, 3.0}, {last, -6.0}}));
  EXPECT_EQ(MultiplyTiles(Tile(bs, col_63), last_tile, bs),
            (Cells{{0 * bs + 63, 4.5}, {last, 0.375}}));
  EXPECT_EQ(MultiplyTiles(last_tile, last_tile, bs), (Cells{{last, 2.25}}));
}

class MultiplyShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MultiplyShapeTest, MatchesDenseReference) {
  const auto [m, k, n, bs] = GetParam();
  Context ctx(2);
  auto ea = RandomEntries(m, k, 0.25, 100 + m);
  auto eb = RandomEntries(k, n, 0.25, 200 + n);
  auto a = *BlockMatrix::FromEntries(&ctx, m, k, bs, ea);
  auto b = *BlockMatrix::FromEntries(&ctx, k, n, bs, eb);
  auto c = *a.Multiply(b);
  EXPECT_EQ(c.rows(), static_cast<uint64_t>(m));
  EXPECT_EQ(c.cols(), static_cast<uint64_t>(n));
  ExpectDenseNear(c.ToDense(), RefMultiply(DenseOf(ea, m, k),
                                           DenseOf(eb, k, n), m, k, n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiplyShapeTest,
    ::testing::Values(std::tuple{8, 8, 8, 4}, std::tuple{16, 8, 12, 4},
                      std::tuple{5, 7, 3, 4}, std::tuple{20, 20, 20, 7},
                      std::tuple{32, 16, 8, 8}));

TEST(BlockMatrixTest, MultiplyValidatesShapes) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 8, 8, 4, {});
  auto b = *BlockMatrix::FromEntries(&ctx, 9, 8, 4, {});
  auto c = *BlockMatrix::FromEntries(&ctx, 8, 8, 2, {});
  EXPECT_FALSE(a.Multiply(b).ok());
  EXPECT_FALSE(a.Multiply(c).ok());
}

TEST(BlockMatrixTest, LocalJoinMultiplyShufflesLess) {
  Context ctx(2);
  const uint64_t n = 64, bs = 8;
  auto ea = RandomEntries(n, n, 0.1, 7);
  auto eb = RandomEntries(n, n, 0.1, 8);
  // Placed for the local join: left by column block, right by row block.
  auto a = *BlockMatrix::FromEntries(&ctx, n, n, bs, ea, ModePolicy::Auto(),
                                     PartitionScheme::kByColBlock, 4);
  auto b = *BlockMatrix::FromEntries(&ctx, n, n, bs, eb, ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, 4);

  ctx.metrics().Reset();
  auto local = *a.Multiply(b);
  local.NumNonZero();
  const uint64_t local_shuffles = ctx.metrics().shuffles.load();
  const uint64_t local_bytes = ctx.metrics().shuffle_bytes.load();

  ctx.metrics().Reset();
  MatMulOptions forced;
  forced.force_shuffle_join = true;
  auto shuffled = *a.Multiply(b, forced);
  shuffled.NumNonZero();
  const uint64_t forced_shuffles = ctx.metrics().shuffles.load();
  const uint64_t forced_bytes = ctx.metrics().shuffle_bytes.load();

  EXPECT_LT(local_shuffles, forced_shuffles)
      << "local join removes the two input shuffles (Sec. VI-A)";
  EXPECT_LT(local_bytes, forced_bytes);
  // Same numbers either way.
  ExpectDenseNear(local.ToDense(), shuffled.ToDense());
}

TEST(BlockMatrixTest, MultiplyVectorMatchesReference) {
  Context ctx(2);
  const uint64_t m = 20, n = 12, bs = 5;
  auto entries = RandomEntries(m, n, 0.3, 9);
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries);
  std::vector<double> x(n);
  for (uint64_t i = 0; i < n; ++i) x[i] = 0.5 * i - 2;
  auto v = BlockVector::FromDense(&ctx, x, bs);
  auto y = *a.MultiplyVector(v);
  EXPECT_EQ(y.size(), m);
  EXPECT_TRUE(y.is_column());
  auto dense = DenseOf(entries, m, n);
  auto got = y.ToDense();
  for (uint64_t r = 0; r < m; ++r) {
    double want = 0;
    for (uint64_t c = 0; c < n; ++c) want += dense[r * n + c] * x[c];
    EXPECT_NEAR(got[r], want, 1e-9);
  }
}

TEST(BlockMatrixTest, LeftMultiplyVectorMatchesReference) {
  Context ctx(2);
  const uint64_t m = 12, n = 20, bs = 5;
  auto entries = RandomEntries(m, n, 0.3, 10);
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries);
  std::vector<double> x(m);
  for (uint64_t i = 0; i < m; ++i) x[i] = 1.0 - 0.3 * i;
  auto v = BlockVector::FromDense(&ctx, x, bs);
  auto y = *a.LeftMultiplyVector(v);
  EXPECT_EQ(y.size(), n);
  EXPECT_FALSE(y.is_column()) << "vT M is a row vector";
  auto dense = DenseOf(entries, m, n);
  auto got = y.ToDense();
  for (uint64_t c = 0; c < n; ++c) {
    double want = 0;
    for (uint64_t r = 0; r < m; ++r) want += dense[r * n + c] * x[r];
    EXPECT_NEAR(got[c], want, 1e-9);
  }
}

// M x v and vT x M over every placement, with a vector of the matrix's
// partition count and of another one. 23 x 17 in 4 x 4 tiles leaves a
// ragged last row and column block; row block 2 and column block 1 are
// all zero, so each product has an output block that no tile reaches.
class MatVecPlacementTest
    : public ::testing::TestWithParam<std::tuple<PartitionScheme, int>> {};

TEST_P(MatVecPlacementTest, BothProductsMatchDenseReference) {
  const auto [scheme, vec_parts] = GetParam();
  Context ctx(2);
  const uint64_t m = 23, n = 17, bs = 4;
  auto entries = RandomEntries(m, n, 0.35, 21);
  std::erase_if(entries, [](const MatrixEntry& e) {
    return e.row / 4 == 2 || e.col / 4 == 1;
  });
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries,
                                     ModePolicy::Auto(), scheme, 3);
  const auto dense = DenseOf(entries, m, n);
  std::vector<double> x(n), u(m);
  for (uint64_t c = 0; c < n; ++c) x[c] = 0.25 * c - 1.5;
  for (uint64_t r = 0; r < m; ++r) u[r] = 1.0 - 0.1 * r;
  auto y = *a.MultiplyVector(BlockVector::FromDense(&ctx, x, bs, vec_parts));
  auto z = *a.LeftMultiplyVector(
      BlockVector::FromDense(&ctx, u, bs, vec_parts).TransposeMetadata());
  EXPECT_TRUE(y.is_column());
  EXPECT_FALSE(z.is_column());
  EXPECT_EQ(y.blocks().Count(), y.num_blocks()) << "every block present";
  EXPECT_EQ(z.blocks().Count(), z.num_blocks()) << "every block present";
  const auto near = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)));
  };
  const auto got_y = y.ToDense();
  ASSERT_EQ(got_y.size(), m);
  for (uint64_t r = 0; r < m; ++r) {
    double want = 0;
    for (uint64_t c = 0; c < n; ++c) want += dense[r * n + c] * x[c];
    near(got_y[r], want);
  }
  const auto got_z = z.ToDense();
  ASSERT_EQ(got_z.size(), n);
  for (uint64_t c = 0; c < n; ++c) {
    double want = 0;
    for (uint64_t r = 0; r < m; ++r) want += dense[r * n + c] * u[r];
    near(got_z[c], want);
  }
  for (uint64_t r = 8; r < 12; ++r) EXPECT_EQ(got_y[r], 0.0);
  for (uint64_t c = 4; c < 8; ++c) EXPECT_EQ(got_z[c], 0.0);
}

std::string PlacementName(
    const ::testing::TestParamInfo<std::tuple<PartitionScheme, int>>& info) {
  static const char* const kNames[] = {"HashChunk", "ByRowBlock",
                                       "ByColBlock"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_vec" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Placements, MatVecPlacementTest,
    ::testing::Combine(::testing::Values(PartitionScheme::kHashChunk,
                                         PartitionScheme::kByRowBlock,
                                         PartitionScheme::kByColBlock),
                       ::testing::Values(3, 2)),
    PlacementName);

TEST(BlockMatrixTest, VectorMultiplyDimensionChecks) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 8, 6, 4, {{0, 0, 1.0}});
  auto wrong_size = BlockVector::FromDense(&ctx, std::vector<double>(8), 4);
  auto wrong_block = BlockVector::FromDense(&ctx, std::vector<double>(6), 3);
  EXPECT_FALSE(a.MultiplyVector(wrong_size).ok());
  EXPECT_FALSE(a.MultiplyVector(wrong_block).ok());
  EXPECT_FALSE(a.LeftMultiplyVector(BlockVector::FromDense(
                                        &ctx, std::vector<double>(6), 4))
                   .ok());
}

TEST(BlockMatrixTest, TransposeMatchesReference) {
  Context ctx(2);
  auto entries = RandomEntries(10, 14, 0.25, 11);
  auto a = *BlockMatrix::FromEntries(&ctx, 10, 14, 4, entries);
  auto t = a.Transpose();
  EXPECT_EQ(t.rows(), 14u);
  EXPECT_EQ(t.cols(), 10u);
  for (const auto& e : entries) {
    EXPECT_DOUBLE_EQ(t.Get(e.col, e.row), e.value);
  }
  EXPECT_EQ(t.NumNonZero(), entries.size());
}

TEST(BlockMatrixTest, TransposeSelfMultiply) {
  Context ctx(2);
  const uint64_t m = 12, n = 8, bs = 4;
  auto entries = RandomEntries(m, n, 0.3, 12);
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries);
  auto mtm = *a.TransposeSelfMultiply();
  EXPECT_EQ(mtm.rows(), n);
  EXPECT_EQ(mtm.cols(), n);
  auto dense = DenseOf(entries, m, n);
  auto got = mtm.ToDense();
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < n; ++j) {
      double want = 0;
      for (uint64_t r = 0; r < m; ++r) {
        want += dense[r * n + i] * dense[r * n + j];
      }
      EXPECT_NEAR(got[i * n + j], want, 1e-9);
    }
  }
}

TEST(BlockMatrixTest, SparseMatrixMemoryFootprint) {
  Context ctx(2);
  auto sparse_entries = RandomEntries(256, 256, 0.01, 13);
  auto sparse = *BlockMatrix::FromEntries(&ctx, 256, 256, 64, sparse_entries,
                                          ModePolicy::Auto());
  auto dense_mode =
      *BlockMatrix::FromEntries(&ctx, 256, 256, 64, sparse_entries,
                                ModePolicy::Fixed(ChunkMode::kDense));
  EXPECT_LT(sparse.MemoryBytes(), dense_mode.MemoryBytes() / 4);
}

}  // namespace
}  // namespace spangle
