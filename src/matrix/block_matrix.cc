#include "matrix/block_matrix.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "matrix/matvec.h"

namespace spangle {

namespace {

/// Partial product of one tile pair, addressed by output tile id.
/// Cells are offset-sorted; merging is a sorted merge-add.
struct TilePartial {
  std::vector<std::pair<uint32_t, double>> cells;

  size_t SerializedBytes() const {
    return cells.size() * (sizeof(uint32_t) + sizeof(double));
  }
};

TilePartial MergePartials(const TilePartial& a, const TilePartial& b) {
  TilePartial out;
  out.cells.reserve(a.cells.size() + b.cells.size());
  size_t i = 0, j = 0;
  while (i < a.cells.size() && j < b.cells.size()) {
    if (a.cells[i].first < b.cells[j].first) {
      out.cells.push_back(a.cells[i++]);
    } else if (b.cells[j].first < a.cells[i].first) {
      out.cells.push_back(b.cells[j++]);
    } else {
      out.cells.emplace_back(a.cells[i].first,
                             a.cells[i].second + b.cells[j].second);
      ++i;
      ++j;
    }
  }
  while (i < a.cells.size()) out.cells.push_back(a.cells[i++]);
  while (j < b.cells.size()) out.cells.push_back(b.cells[j++]);
  return out;
}

Chunk TileFromSortedCells(uint32_t cells_per_tile,
                          std::vector<std::pair<uint32_t, double>> cells) {
  const ChunkMode mode = Chunk::ChooseMode(cells_per_tile, cells.size());
  return Chunk::FromCells(cells_per_tile, std::move(cells), mode);
}

using Cells = std::vector<std::pair<uint32_t, double>>;

/// True when a tile pair has so few candidate products that a bs*bs
/// accumulator would cost more than the products themselves.
bool FewProducts(uint64_t a_valid, uint64_t b_valid, uint32_t bs) {
  return a_valid * b_valid * 8 < static_cast<uint64_t>(bs) * bs;
}

/// Sorted-COO kernel for ultra-sparse pairs: both operands are
/// offset-sorted cell lists, so row j of `b` is the contiguous run of
/// offsets in [j*bs, (j+1)*bs), found by binary search. The products are
/// stable-sorted by output offset and each run is summed from 0.0 in
/// generation order, the order (and so the rounding) of the dense-buffer
/// kernel's accumulation.
Cells SparseProduct(const Cells& a, const Cells& b, uint32_t bs) {
  const auto offset_less = [](const std::pair<uint32_t, double>& cell,
                              uint64_t off) { return cell.first < off; };
  Cells products;
  for (const auto& [off, av] : a) {
    const uint64_t row_begin = static_cast<uint64_t>(off % bs) * bs;
    const uint32_t base = (off / bs) * bs;
    auto it = std::lower_bound(b.begin(), b.end(), row_begin, offset_less);
    for (; it != b.end() && it->first < row_begin + bs; ++it) {
      products.emplace_back(
          base + static_cast<uint32_t>(it->first - row_begin),
          av * it->second);
    }
  }
  const auto by_offset = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  if (!std::is_sorted(products.begin(), products.end(), by_offset)) {
    std::stable_sort(products.begin(), products.end(), by_offset);
  }
  size_t kept = 0;
  for (size_t i = 0; i < products.size();) {
    const uint32_t off = products[i].first;
    double sum = 0.0;
    for (; i < products.size() && products[i].first == off; ++i) {
      sum += products[i].second;
    }
    products[kept++] = {off, sum};
  }
  products.resize(kept);
  return products;
}

/// Dense-buffer kernel: index `b` by row so each left cell (r, j) streams
/// through row j of b, accumulating into a bs*bs buffer with a touched
/// bitmask.
Cells DenseProduct(const Chunk& a, const Chunk& b, uint32_t bs) {
  std::vector<std::vector<std::pair<uint32_t, double>>> b_rows(bs);
  b.ForEachValid([&](uint32_t off, double v) {
    b_rows[off / bs].emplace_back(off % bs, v);
  });
  std::vector<double> acc(static_cast<size_t>(bs) * bs, 0.0);
  Bitmask touched(static_cast<size_t>(bs) * bs);
  a.ForEachValid([&](uint32_t off, double av) {
    const uint32_t r = off / bs;
    const uint32_t j = off % bs;
    const uint32_t base = r * bs;
    for (const auto& [c, bv] : b_rows[j]) {
      acc[base + c] += av * bv;
      touched.Set(base + c);
    }
  });
  Cells out;
  out.reserve(touched.CountAll());
  touched.ForEachSetBit([&](size_t off) {
    out.emplace_back(static_cast<uint32_t>(off), acc[off]);
  });
  return out;
}

}  // namespace

std::vector<std::pair<uint32_t, double>> MultiplyTiles(const Chunk& a,
                                                       const Chunk& b,
                                                       uint32_t bs) {
  // Invalid (zero) cells never appear: the bitmask iteration is the "skip
  // the pair when either operand is zero" rule of Fig. 5.
  if (FewProducts(a.num_valid(), b.num_valid(), bs)) {
    return SparseProduct(a.ToCells(), b.ToCells(), bs);
  }
  return DenseProduct(a, b, bs);
}

ArrayMetadata BlockMatrix::MakeMeta(uint64_t rows, uint64_t cols,
                                    uint64_t block) {
  return ArrayMetadata({{"row", 0, rows, block, 0},
                        {"col", 0, cols, block, 0}});
}

Result<BlockMatrix> BlockMatrix::FromEntries(
    Context* ctx, uint64_t rows, uint64_t cols, uint64_t block,
    const std::vector<MatrixEntry>& entries, ModePolicy policy,
    PartitionScheme scheme, int num_partitions) {
  if (rows == 0 || cols == 0 || block == 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  // block^2 >= 2^32 cells would not fit the uint32_t tile offsets.
  if (block >= (uint64_t{1} << 16)) {
    return Status::InvalidArgument("tile has 2^32 or more cells");
  }
  BlockMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.block_ = block;
  out.scheme_ = scheme;
  const ArrayMetadata meta = MakeMeta(rows, cols, block);
  Mapper mapper(meta);
  internal::ChunkRuns grouped;
  for (const auto& e : entries) {
    if (e.row >= rows || e.col >= cols) {
      return Status::OutOfRange("matrix entry outside bounds");
    }
    if (e.value == 0.0) continue;  // zero entries are not stored
    const Coords pos{static_cast<int64_t>(e.row),
                     static_cast<int64_t>(e.col)};
    grouped.Add(mapper.ChunkIdFromCoords(pos), mapper.LocalOffset(pos),
                e.value);
  }
  const uint32_t cpt = mapper.cells_per_chunk();
  std::vector<std::pair<ChunkId, Chunk>> records;
  for (auto& [id, cells] : grouped.Take()) {
    const ChunkMode mode = policy.fixed.has_value()
                               ? *policy.fixed
                               : Chunk::ChooseMode(cpt, cells.size());
    records.emplace_back(id, Chunk::FromCells(cpt, std::move(cells), mode));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  auto partitioner = std::make_shared<BlockPartitioner>(
      scheme, meta.chunks_along(0), num_partitions);
  auto pairs = ctx->ParallelizePairs<ChunkId, Chunk>(std::move(records),
                                                     std::move(partitioner));
  out.array_ = ArrayRdd(meta, std::move(pairs));
  return out;
}

double BlockMatrix::Get(uint64_t r, uint64_t c) const {
  auto result = array_.GetCell(
      {static_cast<int64_t>(r), static_cast<int64_t>(c)});
  return result.ok() ? *result : 0.0;
}

BlockMatrix BlockMatrix::Scale(double factor) const {
  BlockMatrix out = *this;
  out.array_ = array_.MapValues([factor](double v) { return v * factor; });
  return out;
}

double BlockMatrix::FrobeniusNorm() const {
  const double total = array_.chunks().AsRdd().Aggregate<double>(
      0.0,
      [](double acc, const std::pair<ChunkId, Chunk>& rec) {
        rec.second.ForEachValid([&](uint32_t, double v) { acc += v * v; });
        return acc;
      },
      [](double a, double b) { return a + b; });
  return std::sqrt(total);
}

Result<double> BlockMatrix::Trace() const {
  if (rows_ != cols_) {
    return Status::InvalidArgument("trace of a non-square matrix");
  }
  const uint64_t nrb = num_row_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);
  // Only diagonal tiles contribute.
  return array_.chunks().AsRdd().Aggregate<double>(
      0.0,
      [nrb, bs](double acc, const std::pair<ChunkId, Chunk>& rec) {
        if (rec.first % nrb != rec.first / nrb) return acc;
        rec.second.ForEachValid([&](uint32_t off, double v) {
          if (off / bs == off % bs) acc += v;
        });
        return acc;
      },
      [](double a, double b) { return a + b; });
}

std::vector<double> BlockMatrix::ToDense() const {
  std::vector<double> out(rows_ * cols_, 0.0);
  for (const auto& cell : array_.CollectCells()) {
    out[static_cast<uint64_t>(cell.pos[0]) * cols_ +
        static_cast<uint64_t>(cell.pos[1])] = cell.value;
  }
  return out;
}

namespace {

/// Element-wise combine of two co-keyed tile RDDs with pass-through for
/// one-sided tiles. scale_b = -1 gives subtraction.
Result<ArrayRdd> CombineTiles(const BlockMatrix& a, const BlockMatrix& b,
                              double scale_b) {
  auto grouped = a.array().chunks().CoGroup(b.array().chunks());
  const uint32_t cpt =
      static_cast<uint32_t>(a.array().metadata().cells_per_chunk());
  auto combined = grouped.MapValues(
      [cpt, scale_b](
          const std::pair<std::vector<Chunk>, std::vector<Chunk>>& sides) {
        std::unordered_map<uint32_t, double> acc;
        for (const Chunk& t : sides.first) {
          t.ForEachValid([&](uint32_t off, double v) { acc[off] += v; });
        }
        for (const Chunk& t : sides.second) {
          t.ForEachValid(
              [&](uint32_t off, double v) { acc[off] += scale_b * v; });
        }
        std::vector<std::pair<uint32_t, double>> cells;
        cells.reserve(acc.size());
        for (const auto& [off, v] : acc) {
          if (v != 0.0) cells.emplace_back(off, v);
        }
        std::sort(cells.begin(), cells.end());
        return TileFromSortedCells(cpt, std::move(cells));
      });
  auto nonempty = combined.Filter([](const std::pair<ChunkId, Chunk>& rec) {
    return rec.second.num_valid() > 0;
  });
  return ArrayRdd(a.array().metadata(),
                  PairRdd<ChunkId, Chunk>(nonempty.AsRdd(),
                                          nonempty.partitioner()));
}

}  // namespace

Result<BlockMatrix> BlockMatrix::Add(const BlockMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || block_ != other.block_) {
    return Status::InvalidArgument("matrix shape mismatch in Add");
  }
  BlockMatrix out = *this;
  SPANGLE_ASSIGN_OR_RETURN(out.array_, CombineTiles(*this, other, 1.0));
  return out;
}

Result<BlockMatrix> BlockMatrix::Subtract(const BlockMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || block_ != other.block_) {
    return Status::InvalidArgument("matrix shape mismatch in Subtract");
  }
  BlockMatrix out = *this;
  SPANGLE_ASSIGN_OR_RETURN(out.array_, CombineTiles(*this, other, -1.0));
  return out;
}

Result<BlockMatrix> BlockMatrix::Hadamard(const BlockMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || block_ != other.block_) {
    return Status::InvalidArgument("matrix shape mismatch in Hadamard");
  }
  const uint32_t cpt =
      static_cast<uint32_t>(array_.metadata().cells_per_chunk());
  // Inner join: a tile missing on either side contributes nothing.
  auto joined = array_.chunks().Join(other.array().chunks());
  auto combined = joined.MapValues(
      [cpt](const std::pair<Chunk, Chunk>& tiles) {
        // Bitwise AND of the two bitmasks selects exactly the cell pairs
        // where both operands are non-zero (Sec. IV-A).
        Bitmask both = tiles.first.FlatMask();
        both.AndWith(tiles.second.FlatMask());
        std::vector<std::pair<uint32_t, double>> cells;
        cells.reserve(both.CountAll());
        both.ForEachSetBit([&](size_t off) {
          const uint32_t o = static_cast<uint32_t>(off);
          cells.emplace_back(o, tiles.first.Value(o) * tiles.second.Value(o));
        });
        return TileFromSortedCells(cpt, std::move(cells));
      });
  auto nonempty = combined.Filter([](const std::pair<ChunkId, Chunk>& rec) {
    return rec.second.num_valid() > 0;
  });
  BlockMatrix out = *this;
  out.array_ = ArrayRdd(array_.metadata(),
                        PairRdd<ChunkId, Chunk>(nonempty.AsRdd(),
                                                nonempty.partitioner()));
  return out;
}

Result<BlockMatrix> BlockMatrix::Multiply(const BlockMatrix& other,
                                          const MatMulOptions& options) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("inner dimensions differ in Multiply");
  }
  if (block_ != other.block_) {
    return Status::InvalidArgument("operands must share a block size");
  }
  const uint64_t nrb_a = num_row_blocks();
  const uint64_t nrb_b = other.num_row_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);

  // Scatter: key the left matrix by its column block (the contraction
  // index j) and the right by its row block.
  using Keyed = std::pair<uint64_t, std::pair<uint64_t, Chunk>>;
  auto a_by_j = ToPair<uint64_t, std::pair<uint64_t, Chunk>>(
      array_.chunks().AsRdd().Map(
          [nrb_a](const std::pair<ChunkId, Chunk>& rec) {
            return Keyed{rec.first / nrb_a, {rec.first % nrb_a, rec.second}};
          }));
  auto b_by_j = ToPair<uint64_t, std::pair<uint64_t, Chunk>>(
      other.array().chunks().AsRdd().Map(
          [nrb_b](const std::pair<ChunkId, Chunk>& rec) {
            return Keyed{rec.first % nrb_b, {rec.first / nrb_b, rec.second}};
          }));

  // Local join (Sec. VI-A): when the left matrix is placed by column
  // block and the right by row block with equal partition counts, record
  // placement is already a function of j, so the cogroup needs no
  // shuffle.
  const bool local_ok =
      !options.force_shuffle_join &&
      scheme_ == PartitionScheme::kByColBlock &&
      other.scheme() == PartitionScheme::kByRowBlock &&
      array_.chunks().num_partitions() ==
          other.array().chunks().num_partitions();
  if (local_ok) {
    auto p = std::make_shared<HashPartitioner<uint64_t>>(
        array_.chunks().num_partitions());
    a_by_j = ToPair<uint64_t, std::pair<uint64_t, Chunk>>(a_by_j.AsRdd(), p);
    b_by_j = ToPair<uint64_t, std::pair<uint64_t, Chunk>>(b_by_j.AsRdd(), p);
  }

  // One multiply pass per contraction group j: every (A[rb, j], B[j, cb])
  // pair of the group is multiplied in place, each tile listed as cells
  // once per group rather than copied into a record per pair.
  using Group = std::vector<std::pair<uint64_t, Chunk>>;
  const uint64_t out_nrb = nrb_a;
  auto partials = ToPair<ChunkId, TilePartial>(
      a_by_j.CoGroup(b_by_j).AsRdd().FlatMap(
          [bs, out_nrb](
              const std::pair<uint64_t, std::pair<Group, Group>>& group) {
            const auto& [a_tiles, b_tiles] = group.second;
            std::vector<std::pair<ChunkId, TilePartial>> out;
            if (a_tiles.empty() || b_tiles.empty()) return out;
            std::vector<Cells> a_cells, b_cells;
            a_cells.reserve(a_tiles.size());
            b_cells.reserve(b_tiles.size());
            for (const auto& [rb, tile] : a_tiles) {
              a_cells.push_back(tile.ToCells());
            }
            for (const auto& [cb, tile] : b_tiles) {
              b_cells.push_back(tile.ToCells());
            }
            for (size_t i = 0; i < a_tiles.size(); ++i) {
              const auto& [rb, a_tile] = a_tiles[i];
              for (size_t k = 0; k < b_tiles.size(); ++k) {
                const auto& [cb, b_tile] = b_tiles[k];
                TilePartial partial;
                partial.cells =
                    FewProducts(a_cells[i].size(), b_cells[k].size(), bs)
                        ? SparseProduct(a_cells[i], b_cells[k], bs)
                        : DenseProduct(a_tile, b_tile, bs);
                if (partial.cells.empty()) continue;
                out.emplace_back(rb + cb * out_nrb, std::move(partial));
              }
            }
            return out;
          }));
  // Gather: tile partial products reduce onto the output tile id.
  auto reduced = partials.ReduceByKey(MergePartials);
  const uint32_t cpt = bs * bs;
  auto tiles = reduced
                   .MapValues([cpt](const TilePartial& p) {
                     // Cancellation can produce explicit zeros; drop them.
                     Cells cells;
                     cells.reserve(p.cells.size());
                     for (const auto& cell : p.cells) {
                       if (cell.second != 0.0) cells.push_back(cell);
                     }
                     return TileFromSortedCells(cpt, std::move(cells));
                   })
                   .Filter([](const std::pair<ChunkId, Chunk>& rec) {
                     return rec.second.num_valid() > 0;
                   });
  BlockMatrix out;
  out.rows_ = rows_;
  out.cols_ = other.cols_;
  out.block_ = block_;
  out.scheme_ = PartitionScheme::kHashChunk;
  out.array_ = ArrayRdd(MakeMeta(rows_, other.cols_, block_),
                        PairRdd<ChunkId, Chunk>(tiles.AsRdd(),
                                                tiles.partitioner()));
  return out;
}

Result<BlockVector> BlockMatrix::MultiplyVector(const BlockVector& v) const {
  if (v.size() != cols_) {
    return Status::InvalidArgument("M x v dimension mismatch");
  }
  if (v.block() != block_) {
    return Status::InvalidArgument("vector block size mismatch");
  }
  const uint32_t bs = static_cast<uint32_t>(block_);
  return internal::MatVecCore(
      array_.chunks(), num_row_blocks(), /*contract_rows=*/false, v, rows_,
      /*out_is_column=*/true,
      [bs](const Chunk& tile, const std::vector<double>& x,
           std::vector<double>* y) {
        tile.ForEachValid([&](uint32_t off, double av) {
          const uint32_t j = off % bs;
          if (j < x.size()) (*y)[off / bs] += av * x[j];
        });
      });
}

BlockMatrix BlockMatrix::FilterRowBlocks(
    const std::shared_ptr<const std::unordered_set<uint64_t>>& keep) const {
  const uint64_t nrb = num_row_blocks();
  auto filtered = array_.chunks().Filter(
      [keep, nrb](const std::pair<ChunkId, Chunk>& rec) {
        return keep->count(rec.first % nrb) > 0;
      });
  BlockMatrix out = *this;
  out.array_ = ArrayRdd(array_.metadata(), std::move(filtered));
  return out;
}

BlockMatrix BlockMatrix::Transpose() const {
  const uint64_t nrb = num_row_blocks();
  const uint64_t t_nrb = num_col_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);
  auto transposed = array_.chunks().AsRdd().Map(
      [nrb, t_nrb, bs](const std::pair<ChunkId, Chunk>& rec) {
        const uint64_t rb = rec.first % nrb;
        const uint64_t cb = rec.first / nrb;
        const ChunkId t_id = cb + rb * t_nrb;
        std::vector<std::pair<uint32_t, double>> cells;
        cells.reserve(rec.second.num_valid());
        rec.second.ForEachValid([&](uint32_t off, double v) {
          cells.emplace_back((off % bs) * bs + off / bs, v);
        });
        std::sort(cells.begin(), cells.end());
        return std::pair<ChunkId, Chunk>(
            t_id, TileFromSortedCells(bs * bs, std::move(cells)));
      });
  // Tile ids changed: re-place them (one shuffle).
  auto placed = ToPair<ChunkId, Chunk>(std::move(transposed))
                    .PartitionBy(std::make_shared<HashPartitioner<ChunkId>>(
                        array_.chunks().num_partitions()));
  BlockMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.block_ = block_;
  out.scheme_ = PartitionScheme::kHashChunk;
  out.array_ = ArrayRdd(MakeMeta(cols_, rows_, block_), std::move(placed));
  return out;
}

Result<BlockMatrix> BlockMatrix::TransposeSelfMultiply(
    const MatMulOptions& options) const {
  return Transpose().Multiply(*this, options);
}

Result<BlockVector> BlockMatrix::LeftMultiplyVector(
    const BlockVector& v) const {
  if (v.size() != rows_) {
    return Status::InvalidArgument("vT x M dimension mismatch");
  }
  if (v.block() != block_) {
    return Status::InvalidArgument("vector block size mismatch");
  }
  const uint32_t bs = static_cast<uint32_t>(block_);
  return internal::MatVecCore(
      array_.chunks(), num_row_blocks(), /*contract_rows=*/true, v, cols_,
      /*out_is_column=*/false,
      [bs](const Chunk& tile, const std::vector<double>& x,
           std::vector<double>* y) {
        tile.ForEachValid([&](uint32_t off, double av) {
          const uint32_t r = off / bs;
          if (r < x.size()) (*y)[off % bs] += av * x[r];
        });
      });
}

}  // namespace spangle
