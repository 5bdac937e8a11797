// Randomized round-trip sweep for Algorithm 1: for arbitrary metadata
// (dimensionality, ragged extents, non-zero starts, uneven chunking),
// coordinates <-> (ChunkId, offset) must be a bijection over the array,
// ChunkIds must be unique per chunk-grid cell, and range queries must
// cover exactly the intersecting chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "array/mapper.h"
#include "common/random.h"

namespace spangle {
namespace {

ArrayMetadata RandomMeta(Rng* rng, size_t nd) {
  std::vector<Dimension> dims(nd);
  for (size_t d = 0; d < nd; ++d) {
    dims[d].name = std::string("d").append(std::to_string(d));
    dims[d].start = static_cast<int64_t>(rng->NextBounded(21)) - 10;
    dims[d].size = 1 + rng->NextBounded(20);
    dims[d].chunk_size = 1 + rng->NextBounded(dims[d].size + 3);
  }
  return *ArrayMetadata::Make(std::move(dims));
}

class MapperPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(MapperPropertyTest, CoordinateRoundTripIsBijective) {
  const auto [seed, nd] = GetParam();
  Rng rng(seed);
  const ArrayMetadata meta = RandomMeta(&rng, nd);
  const Mapper mapper(meta);

  // Enumerate every cell; (cid, offset) pairs must be unique and
  // round-trip to the original coordinates.
  std::set<std::pair<ChunkId, uint32_t>> seen;
  Coords pos(nd);
  for (size_t d = 0; d < nd; ++d) pos[d] = meta.dim(d).start;
  uint64_t cells = 0;
  for (;;) {
    ASSERT_TRUE(mapper.InBounds(pos));
    const ChunkId cid = mapper.ChunkIdFromCoords(pos);
    const uint32_t off = mapper.LocalOffset(pos);
    ASSERT_LT(cid, meta.total_chunks());
    ASSERT_LT(off, mapper.cells_per_chunk());
    ASSERT_TRUE(seen.insert({cid, off}).second)
        << "collision at cid=" << cid << " off=" << off;
    ASSERT_EQ(mapper.CoordsFromChunkOffset(cid, off), pos);
    ASSERT_TRUE(mapper.OffsetInBounds(cid, off));
    // Chunk start must be consistent with the grid coordinates.
    const auto grid = mapper.ChunkGridCoords(cid);
    ASSERT_EQ(mapper.ChunkIdFromGrid(grid), cid);
    for (size_t d = 0; d < nd; ++d) {
      const int64_t start = mapper.ChunkStart(cid, d);
      ASSERT_GE(pos[d], start);
      ASSERT_LT(pos[d],
                start + static_cast<int64_t>(meta.dim(d).chunk_size));
    }
    ++cells;
    // Advance, last dim fastest.
    size_t d = nd;
    for (; d-- > 0;) {
      if (++pos[d] < meta.dim(d).start +
                         static_cast<int64_t>(meta.dim(d).size)) {
        break;
      }
      pos[d] = meta.dim(d).start;
      if (d == 0) {
        d = SIZE_MAX;
        break;
      }
    }
    if (d == SIZE_MAX) break;
  }
  ASSERT_EQ(cells, meta.total_cells());
}

TEST_P(MapperPropertyTest, RangeQueryCoversExactlyIntersectingChunks) {
  const auto [seed, nd] = GetParam();
  Rng rng(seed + 1000);
  const ArrayMetadata meta = RandomMeta(&rng, nd);
  const Mapper mapper(meta);
  for (int trial = 0; trial < 5; ++trial) {
    Coords lo(nd), hi(nd);
    for (size_t d = 0; d < nd; ++d) {
      const int64_t a = meta.dim(d).start +
                        static_cast<int64_t>(rng.NextBounded(
                            meta.dim(d).size));
      const int64_t b = meta.dim(d).start +
                        static_cast<int64_t>(rng.NextBounded(
                            meta.dim(d).size));
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    auto ids = mapper.ChunkIdsInRange(lo, hi);
    std::unordered_set<ChunkId> got(ids.begin(), ids.end());
    ASSERT_EQ(got.size(), ids.size()) << "duplicate chunk ids";
    // Reference: chunks of all cells inside the box.
    std::unordered_set<ChunkId> want;
    Coords pos = lo;
    for (;;) {
      want.insert(mapper.ChunkIdFromCoords(pos));
      size_t d = nd;
      for (; d-- > 0;) {
        if (++pos[d] <= hi[d]) break;
        pos[d] = lo[d];
        if (d == 0) {
          d = SIZE_MAX;
          break;
        }
      }
      if (d == SIZE_MAX) break;
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapperPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_nd" +
             std::to_string(std::get<1>(info.param));
    });

/// Every row of `box` in order, and the chunk offset range it covers.
std::vector<std::pair<std::vector<size_t>, uint32_t>> AllRows(
    const ChunkBox& box) {
  std::vector<std::pair<std::vector<size_t>, uint32_t>> rows;
  std::vector<size_t> idx(box.ext.size(), 0);
  do {
    rows.emplace_back(idx, box.RowStart(idx));
  } while (box.NextRow(&idx));
  return rows;
}

/// A random non-empty box inside a chunk of extents `ext` at `origin`.
ChunkBox RandomBox(const std::vector<uint64_t>& ext,
                   const std::vector<int64_t>& origin, Rng* rng) {
  ChunkBox box{origin, ext, origin, origin};
  for (size_t d = 0; d < ext.size(); ++d) {
    const auto a = static_cast<int64_t>(rng->NextBounded(ext[d]));
    const auto b = static_cast<int64_t>(rng->NextBounded(ext[d]));
    box.lo[d] = origin[d] + std::min(a, b);
    box.hi[d] = origin[d] + std::max(a, b) + 1;
  }
  return box;
}

// The box walk visits, in offset order, exactly the valid cells of the
// box, in every chunk mode; super-sparse chunks with long empty stretches
// skip rows without changing what is visited.
TEST(ChunkBoxTest, ForEachValidMatchesAFilteredFullWalk) {
  Rng rng(47);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t nd = 1 + rng.NextBounded(3);
    std::vector<uint64_t> ext(nd);
    std::vector<int64_t> origin(nd, 0);
    uint32_t cells = 1;
    for (size_t d = 0; d < nd; ++d) {
      ext[d] = nd == 1 ? 2000 : 4 + rng.NextBounded(nd == 2 ? 60 : 16);
      cells *= static_cast<uint32_t>(ext[d]);
    }
    // Two short clusters in a long empty chunk.
    std::vector<std::pair<uint32_t, double>> valid;
    for (int c = 0; c < 2; ++c) {
      const auto at = static_cast<uint32_t>(rng.NextBounded(cells));
      for (uint32_t i = at; i < std::min(cells, at + 40); ++i) {
        if (rng.NextBool(0.4)) valid.emplace_back(i, i * 0.5);
      }
    }
    std::sort(valid.begin(), valid.end());
    valid.erase(std::unique(valid.begin(), valid.end()), valid.end());
    const ChunkBox box = RandomBox(ext, origin, &rng);
    for (ChunkMode mode : {ChunkMode::kDense, ChunkMode::kSparse,
                           ChunkMode::kSuperSparse}) {
      const Chunk chunk = Chunk::FromCells(cells, valid, mode);
      std::vector<std::pair<uint32_t, double>> want;
      for (const auto& [idx, begin] : AllRows(box)) {
        for (const auto& [off, v] : valid) {
          if (off >= begin && off < begin + box.width()) {
            want.emplace_back(off, v);
          }
        }
      }
      std::vector<std::pair<uint32_t, double>> got;
      uint32_t row_begin = 0;
      box.ForEachValid(
          chunk,
          [&](const std::vector<size_t>& idx, uint32_t begin) {
            EXPECT_EQ(box.RowStart(idx), begin);
            row_begin = begin;
          },
          [&](uint32_t off, double v) {
            EXPECT_GE(off, row_begin);
            EXPECT_LT(off, row_begin + box.width());
            got.emplace_back(off, v);
          });
      ASSERT_EQ(got, want) << "trial " << trial << " mode "
                           << ChunkModeName(mode);
    }
  }
}

}  // namespace
}  // namespace spangle
