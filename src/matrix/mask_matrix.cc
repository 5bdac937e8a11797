#include "matrix/mask_matrix.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "engine/first_seen_groups.h"
#include "matrix/matvec.h"
#include "matrix/partition.h"

namespace spangle {

namespace {

/// Sorts tile offsets (all below `cells`) by LSD radix, 11 bits a pass:
/// linear in the offset count, where std::sort dominated the tile build.
void SortOffsets(std::vector<uint32_t>* offsets, uint32_t cells) {
  constexpr int kDigitBits = 11;
  constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
  std::vector<uint32_t> scratch(offsets->size());
  for (int shift = 0; shift < 32 && ((cells - 1) >> shift) != 0;
       shift += kDigitBits) {
    std::array<uint32_t, kDigitMask + 2> starts{};
    for (uint32_t off : *offsets) ++starts[((off >> shift) & kDigitMask) + 1];
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    for (uint32_t off : *offsets) {
      scratch[starts[(off >> shift) & kDigitMask]++] = off;
    }
    offsets->swap(scratch);
  }
}

/// Builds one tile from its bit offsets (any order, duplicates allowed).
/// Hierarchical when the tile is so empty that dropping all-zero mask
/// words pays (same rule as Chunk::ChooseMode's super-sparse bound); only
/// a tile dense enough to stay flat ever allocates the flat mask.
MaskTile TileFromOffsets(std::vector<uint32_t> offsets, uint32_t cells,
                         bool force_hierarchical) {
  SortOffsets(&offsets, cells);
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  MaskTile tile;
  tile.hierarchical =
      force_hierarchical || static_cast<uint64_t>(offsets.size()) * 64 < cells;
  if (tile.hierarchical) {
    tile.h = HierarchicalBitmask::FromSortedBits(
        cells, offsets.size(), [&](size_t k) { return offsets[k]; });
  } else {
    tile.flat = Bitmask(cells);
    for (uint32_t off : offsets) tile.flat.Set(off);
    tile.flat.BuildMilestones();
  }
  return tile;
}

}  // namespace

Result<MaskMatrix> MaskMatrix::FromEdges(
    Context* ctx, uint64_t n, uint64_t block,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges,
    bool force_hierarchical, int num_partitions) {
  if (n == 0 || block == 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  // block^2 >= 2^32 cells would not fit the uint32_t tile offsets.
  if (block >= (uint64_t{1} << 16)) {
    return Status::InvalidArgument("tile has 2^32 or more cells");
  }
  MaskMatrix out;
  out.n_ = n;
  out.block_ = block;
  const uint64_t nb = out.num_blocks_1d();
  const uint32_t cells = static_cast<uint32_t>(block * block);
  // Driver side: bucket the edges into one offset list per tile.
  internal::FirstSeenGroups<ChunkId, std::vector<uint32_t>> grouped;
  for (const auto& [dst, src] : edges) {
    if (dst >= n || src >= n) return Status::OutOfRange("edge out of range");
    grouped[dst / block + (src / block) * nb].push_back(
        static_cast<uint32_t>((dst % block) * block + src % block));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  auto partitioner = std::make_shared<BlockPartitioner>(
      PartitionScheme::kByColBlock, nb, num_partitions);
  // Pool side: each task builds its tiles from the offset lists.
  out.tiles_ = ctx->ParallelizePairs<ChunkId, std::vector<uint32_t>>(
                      grouped.Take(), std::move(partitioner))
                   .MapValues([cells, force_hierarchical](
                                  const std::vector<uint32_t>& offsets) {
                     return TileFromOffsets(offsets, cells,
                                            force_hierarchical);
                   });
  return out;
}

uint64_t MaskMatrix::NumEdges() const {
  return tiles_.AsRdd().Aggregate<uint64_t>(
      0,
      [](uint64_t acc, const std::pair<ChunkId, MaskTile>& rec) {
        return acc + rec.second.CountAll();
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

size_t MaskMatrix::MemoryBytes() const {
  return tiles_.AsRdd().Aggregate<size_t>(
      0,
      [](size_t acc, const std::pair<ChunkId, MaskTile>& rec) {
        return acc + rec.second.MemoryBytes();
      },
      [](size_t a, size_t b) { return a + b; });
}

Result<BlockVector> MaskMatrix::MultiplyVector(const BlockVector& v) const {
  if (v.size() != n_) {
    return Status::InvalidArgument("A' x v dimension mismatch");
  }
  if (v.block() != block_) {
    return Status::InvalidArgument("vector block size mismatch");
  }
  const uint32_t bs = static_cast<uint32_t>(block_);
  return internal::MatVecCore(
      tiles_, num_blocks_1d(), /*contract_rows=*/false, v, n_,
      /*out_is_column=*/true,
      [bs](const MaskTile& tile, const std::vector<double>& x,
           std::vector<double>* y) {
        tile.ForEachSetBit([&](size_t off) {
          const uint32_t r = static_cast<uint32_t>(off) / bs;
          const uint32_t c = static_cast<uint32_t>(off) % bs;
          if (c < x.size() && r < y->size()) (*y)[r] += x[c];
        });
      });
}

std::vector<uint64_t> MaskMatrix::ColumnDegrees() const {
  const uint64_t nb = num_blocks_1d();
  const uint32_t bs = static_cast<uint32_t>(block_);
  auto per_tile = tiles_.AsRdd().Map(
      [nb, bs](const std::pair<ChunkId, MaskTile>& rec) {
        const uint64_t cb = rec.first / nb;
        std::vector<uint64_t> counts(bs, 0);
        rec.second.ForEachSetBit(
            [&](size_t off) { ++counts[static_cast<uint32_t>(off) % bs]; });
        return std::make_pair(cb, std::move(counts));
      });
  std::vector<uint64_t> degrees(n_, 0);
  for (const auto& [cb, counts] : per_tile.Collect()) {
    const uint64_t base = cb * block_;
    for (uint32_t c = 0; c < bs && base + c < n_; ++c) {
      degrees[base + c] += counts[c];
    }
  }
  return degrees;
}

}  // namespace spangle
