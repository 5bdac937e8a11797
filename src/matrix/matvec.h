#ifndef SPANGLE_MATRIX_MATVEC_H_
#define SPANGLE_MATRIX_MATVEC_H_

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matrix/block_vector.h"
#include "matrix/partition.h"

namespace spangle {
namespace internal {

/// a + b slot by slot: how every partial sum of one vector block combines.
inline VecBlock AddBlocks(const VecBlock& a, const VecBlock& b) {
  VecBlock out = a;
  for (size_t i = 0; i < out.values.size(); ++i) out.values[i] += b.values[i];
  return out;
}

/// The one matrix–vector pipeline, behind M×v, vᵀM and A′v. Tile ids use
/// the Algorithm-1 layout (row block = id % nrb, column block = id / nrb).
/// The vector indexes the tiles' column blocks, or their row blocks when
/// `contract_rows` (vᵀM); the other index names the output block.
/// `kernel(tile, x, &y)` adds one tile's products of vector block `x`
/// onto output partial `y`, which starts as zeros of the block's length.
///
/// The vector stays hash-placed and each tile sits in the partition of
/// the vector block it reads: tiles placed by their contraction block
/// (kByColBlock, or kByRowBlock when `contract_rows`) with the vector's
/// partition count never move; others are re-placed once. A narrow zip
/// sums one partial per output block per partition in tile order, one
/// reduce combines the partials on the vector's partitioner, and a
/// narrow pass adds each onto a zero block, making zero blocks for the
/// output blocks no tile reached — so the result is a complete vector.
template <typename Tile, typename Kernel>
BlockVector MatVecCore(const PairRdd<ChunkId, Tile>& tiles, uint64_t nrb,
                       bool contract_rows, const BlockVector& v,
                       uint64_t out_size, bool out_is_column, Kernel kernel) {
  const uint64_t block = v.block();
  const int parts = v.blocks().num_partitions();
  auto vec_p = std::make_shared<HashPartitioner<uint64_t>>(parts);
  PairRdd<uint64_t, VecBlock> blocks = v.blocks();
  if (blocks.partitioner() == nullptr ||
      !blocks.partitioner()->Equals(*vec_p)) {
    blocks = blocks.PartitionBy(vec_p);
  }
  auto tile_p = std::make_shared<BlockPartitioner>(
      contract_rows ? PartitionScheme::kByRowBlock
                    : PartitionScheme::kByColBlock,
      nrb, parts);
  PairRdd<ChunkId, Tile> placed = tiles;
  if (placed.partitioner() == nullptr ||
      !placed.partitioner()->Equals(*tile_p)) {
    placed = placed.PartitionBy(tile_p);
  }
  using Block = std::pair<uint64_t, VecBlock>;
  const auto block_len = [block, out_size](uint64_t b) {
    return std::min<uint64_t>(block, out_size - b * block);
  };
  auto partials = ToPair<uint64_t, VecBlock>(
      placed.AsRdd().template ZipPartitions<Block, Block>(
          blocks.AsRdd(),
          [nrb, contract_rows, block_len, kernel](
              int, const std::vector<std::pair<ChunkId, Tile>>& part_tiles,
              const std::vector<Block>& part_blocks) {
            std::unordered_map<uint64_t, const VecBlock*> x_of;
            for (const auto& [b, vb] : part_blocks) x_of.emplace(b, &vb);
            std::map<uint64_t, VecBlock> sums;
            for (const auto& [id, tile] : part_tiles) {
              const uint64_t rb = id % nrb;
              const uint64_t cb = id / nrb;
              auto it = x_of.find(contract_rows ? rb : cb);
              if (it == x_of.end()) continue;
              const uint64_t out_block = contract_rows ? cb : rb;
              std::vector<double>& y = sums[out_block].values;
              if (y.empty()) y.assign(block_len(out_block), 0.0);
              kernel(tile, it->second->values, &y);
            }
            return std::vector<Block>(std::make_move_iterator(sums.begin()),
                                      std::make_move_iterator(sums.end()));
          },
          "matVec"));
  auto reduced = partials.ReduceByKey(AddBlocks, vec_p);
  const uint64_t out_blocks = (out_size + block - 1) / block;
  auto filled = reduced.AsRdd().template MapPartitionsWithIndex<Block>(
      [vec_p, out_blocks, block_len](int idx, const std::vector<Block>& in) {
        std::vector<Block> out;  // this partition's blocks, ascending
        for (uint64_t b = 0; b < out_blocks; ++b) {
          if (vec_p->PartitionFor(b) == idx) {
            out.emplace_back(b, VecBlock{std::vector<double>(block_len(b))});
          }
        }
        for (const auto& [b, sum] : in) {
          auto it = std::lower_bound(
              out.begin(), out.end(), b,
              [](const Block& x, uint64_t key) { return x.first < key; });
          it->second = AddBlocks(it->second, sum);
        }
        return out;
      },
      "zeroFill");
  return BlockVector::FromBlocks(
      out_size, block, out_is_column,
      PairRdd<uint64_t, VecBlock>(std::move(filled), std::move(vec_p)));
}

}  // namespace internal
}  // namespace spangle

#endif  // SPANGLE_MATRIX_MATVEC_H_
