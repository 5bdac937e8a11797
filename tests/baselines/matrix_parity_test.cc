#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "baselines/matrix_engines.h"

namespace spangle {
namespace {

SyntheticMatrix TestMatrix() {
  return GenerateUniformMatrix("test", 48, 32, 0.15, 5);
}

std::vector<double> TestVector(uint64_t n, double scale) {
  std::vector<double> v(n);
  for (uint64_t i = 0; i < n; ++i) v[i] = scale * (i % 7) - 1.0;
  return v;
}

TEST(MatrixParityTest, AllEnginesAgreeOnMxVAndVtM) {
  Context ctx(2);
  auto m = TestMatrix();
  auto spangle = *SpangleMatrixEngine::Load(&ctx, m, 16);
  auto coo = *CooMatrixEngine::Load(&ctx, m);
  auto mllib = *MllibMatrixEngine::Load(&ctx, m);
  auto scispark = *SciSparkMatrixEngine::Load(&ctx, m);
  auto scidb = *SciDbMatrixEngine::Load(m, "/tmp");

  std::vector<MatrixEngine*> engines = {spangle.get(), coo.get(),
                                        mllib.get(), scispark.get(),
                                        scidb.get()};
  const auto x_col = TestVector(m.cols, 0.5);
  const auto x_row = TestVector(m.rows, 0.25);
  const auto want_mxv = *spangle->MxV(x_col);
  const auto want_vtm = *spangle->VtM(x_row);
  for (MatrixEngine* engine : engines) {
    auto mxv = *engine->MxV(x_col);
    auto vtm = *engine->VtM(x_row);
    ASSERT_EQ(mxv.size(), want_mxv.size()) << engine->name();
    for (size_t i = 0; i < mxv.size(); ++i) {
      EXPECT_NEAR(mxv[i], want_mxv[i], 1e-9) << engine->name() << " @" << i;
    }
    ASSERT_EQ(vtm.size(), want_vtm.size()) << engine->name();
    for (size_t i = 0; i < vtm.size(); ++i) {
      EXPECT_NEAR(vtm[i], want_vtm[i], 1e-9) << engine->name() << " @" << i;
    }
  }
}

TEST(MatrixParityTest, MtMNonZeroCountsAgree) {
  Context ctx(2);
  auto m = TestMatrix();
  auto spangle = *SpangleMatrixEngine::Load(&ctx, m, 16);
  auto coo = *CooMatrixEngine::Load(&ctx, m);
  auto mllib = *MllibMatrixEngine::Load(&ctx, m);
  auto scidb = *SciDbMatrixEngine::Load(m, "/tmp");
  const uint64_t want = *spangle->MtM();
  EXPECT_EQ(*coo->MtM(), want);
  EXPECT_EQ(*mllib->MtM(), want);
  EXPECT_EQ(*scidb->MtM(), want);
}

using CooProduct = std::map<std::pair<uint64_t, uint64_t>, double>;

// (MT M)[i][j] = sum_r M[r][i] * M[r][j], straight from the triples.
CooProduct CooMtM(const SyntheticMatrix& m) {
  std::map<uint64_t, std::vector<std::pair<uint64_t, double>>> rows;
  for (const MatrixEntry& e : m.entries) {
    rows[e.row].emplace_back(e.col, e.value);
  }
  CooProduct out;
  for (const auto& [r, cells] : rows) {
    for (const auto& [i, vi] : cells) {
      for (const auto& [j, vj] : cells) out[{i, j}] += vi * vj;
    }
  }
  return out;
}

void ExpectMatchesCoo(const BlockMatrix& product, const CooProduct& want) {
  const auto cells = product.array().CollectCells();
  EXPECT_EQ(cells.size(), want.size());
  for (const CellValue& cell : cells) {
    auto it = want.find({static_cast<uint64_t>(cell.pos[0]),
                         static_cast<uint64_t>(cell.pos[1])});
    ASSERT_NE(it, want.end()) << cell.pos[0] << "," << cell.pos[1];
    EXPECT_NEAR(cell.value, it->second, 1e-12 * std::abs(it->second))
        << cell.pos[0] << "," << cell.pos[1];
  }
}

TEST(MatrixParityTest, PowerLawMtMMatchesCooReference) {
  // A small mawi-like matrix: power-law rows put most tiles in row block
  // 0, so one contraction group holds most of the tile pairs, and every
  // tile is super-sparse.
  Context ctx(4);
  const SyntheticMatrix m =
      GeneratePowerLawMatrix("mawi_like", 64000, 64000, 1200, 1.3, 26);
  const uint64_t block = 256;
  const CooProduct want = CooMtM(m);
  const uint64_t coo_nnz = *(*CooMatrixEngine::Load(&ctx, m))->MtM();
  ASSERT_EQ(coo_nnz, want.size());

  // Default placement: physical transpose, then a shuffled cogroup.
  auto mat = *BlockMatrix::FromEntries(&ctx, m.rows, m.cols, block, m.entries);
  const uint64_t nrb = mat.num_row_blocks();
  size_t tiles = 0, hot = 0;
  for (const auto& [id, tile] : mat.array().chunks().AsRdd().Collect()) {
    ++tiles;
    if (id % nrb == 0) ++hot;
    EXPECT_EQ(tile.mode(), ChunkMode::kSuperSparse);
  }
  ASSERT_GT(hot * 3, tiles) << "row block 0 should hold a third of tiles";
  const BlockMatrix shuffled = *mat.TransposeSelfMultiply();
  EXPECT_EQ(shuffled.NumNonZero(), coo_nnz);
  ExpectMatchesCoo(shuffled, want);

  // Local join: MT placed by column block and M by row block, so the
  // contraction cogroup shuffles nothing.
  std::vector<MatrixEntry> transposed;
  transposed.reserve(m.entries.size());
  for (const MatrixEntry& e : m.entries) {
    transposed.push_back({e.col, e.row, e.value});
  }
  const int parts = 4;
  auto mt = *BlockMatrix::FromEntries(&ctx, m.cols, m.rows, block, transposed,
                                      ModePolicy::Auto(),
                                      PartitionScheme::kByColBlock, parts);
  auto by_row = *BlockMatrix::FromEntries(&ctx, m.rows, m.cols, block,
                                          m.entries, ModePolicy::Auto(),
                                          PartitionScheme::kByRowBlock, parts);
  const BlockMatrix local = *mt.Multiply(by_row);
  EXPECT_EQ(ctx.BuildPlan(local.array().chunks().AsRdd().node(), "collect")
                .NumPendingShuffleStages(),
            1)
      << "only the output gather shuffles";
  EXPECT_EQ(local.NumNonZero(), coo_nnz);
  ExpectMatchesCoo(local, want);
}

TEST(MatrixParityTest, SciSparkHasNoDistributedMultiply) {
  Context ctx(2);
  auto scispark = *SciSparkMatrixEngine::Load(&ctx, TestMatrix());
  EXPECT_EQ(scispark->MtM().status().code(), StatusCode::kUnimplemented);
}

TEST(MatrixBudgetTest, SciSparkDenseLoadOoms) {
  Context ctx(2);
  // 2000x2000 at density 1e-3: sparse is tiny, dense is 32 MB.
  auto m = GenerateUniformMatrix("big", 2000, 2000, 0.001, 6);
  MemoryBudget budget(4 * 1024 * 1024);
  EXPECT_TRUE(SpangleMatrixEngine::Load(&ctx, m, 256, budget).ok());
  EXPECT_TRUE(
      SciSparkMatrixEngine::Load(&ctx, m, budget).status().IsOutOfMemory());
}

TEST(MatrixBudgetTest, CooMtMExplodesOnDenseRows) {
  Context ctx(2);
  // Dense-ish rows: 200 cols at 30% density -> ~60 nnz/row ->
  // 200*60^2 = 720K cross terms ~ 11.5 MB > 4 MB budget.
  auto dense_rows = GenerateUniformMatrix("mouse_like", 200, 200, 0.3, 7);
  auto coo = *CooMatrixEngine::Load(&ctx, dense_rows, MemoryBudget(4 << 20));
  EXPECT_TRUE(coo->MtM().status().IsOutOfMemory())
      << "COO fails Mouse-like densities (Fig. 10)";
  // Ultra-sparse rows pass under the same budget.
  auto sparse_rows =
      GenerateUniformMatrix("hardesty_like", 2000, 2000, 0.0005, 8);
  auto coo2 = *CooMatrixEngine::Load(&ctx, sparse_rows, MemoryBudget(4 << 20));
  EXPECT_TRUE(coo2->MtM().ok())
      << "COO handles Hardesty-like densities (Fig. 10)";
}

TEST(MatrixBudgetTest, MllibGramianOomsOnWideMatrices) {
  Context ctx(2);
  // 4000 cols -> Gramian = 128 MB > budget.
  auto wide = GenerateUniformMatrix("wide", 100, 4000, 0.001, 9);
  auto mllib = *MllibMatrixEngine::Load(&ctx, wide, MemoryBudget(16 << 20));
  EXPECT_TRUE(mllib->MtM().status().IsOutOfMemory());
}

}  // namespace
}  // namespace spangle
