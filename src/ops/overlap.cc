#include "ops/overlap.h"

#include <algorithm>

#include "ops/block_accumulate.h"

namespace spangle {

namespace {

/// `box` in the expanded layout of its chunk: core plus `radii` ghost
/// cells past every face.
ChunkBox Expand(ChunkBox box, const std::vector<uint64_t>& radii) {
  for (size_t d = 0; d < radii.size(); ++d) {
    box.origin[d] -= static_cast<int64_t>(radii[d]);
    box.ext[d] += 2 * radii[d];
  }
  return box;
}

}  // namespace

OverlapArrayRdd OverlapArrayRdd::Build(const ArrayRdd& base, uint64_t radius) {
  OverlapArrayRdd out;
  out.mapper_ = base.mapper_ptr();
  out.radius_ = radius;
  const ArrayMetadata& meta = out.mapper_->metadata();
  // Per-dimension ghost depth: the radius clamped to the chunk size (a
  // chunk only exchanges with immediate neighbors).
  uint32_t expanded_cells = 1;
  for (const Dimension& dim : meta.dims()) {
    out.radii_.push_back(std::min(radius, dim.chunk_size));
    expanded_cells *=
        static_cast<uint32_t>(dim.chunk_size + 2 * out.radii_.back());
  }

  // Halo exchange: every valid cell goes to its own chunk and to every
  // neighbor whose ghost region contains it. The cells neighbor `step`
  // sees form a box: the whole chunk along a 0 step, the `radius` cells
  // next to the shared face along a -1 or +1 step. Each box is walked row
  // by row into the partition's run for that neighbor, and one shuffle
  // moves one run per (partition, neighbor) into the expanded chunks.
  auto runs = base.chunks().AsRdd().MapPartitionsWithIndex<
      std::pair<ChunkId, CellRun>>(
      [mapper = out.mapper_, radii = out.radii_](
          int, const std::vector<std::pair<ChunkId, Chunk>>& recs) {
        const size_t nd = radii.size();
        internal::ChunkRuns out_runs;
        for (const auto& [cid, chunk] : recs) {
          const ChunkBox core = ChunkBox::Core(*mapper, cid);
          std::vector<int64_t> step(nd, -1);
          for (;;) {
            // The cells the neighbor at `step` sees, as a box of this chunk.
            ChunkBox box = core;
            Coords neighbor = core.origin;
            bool empty = false;
            for (size_t d = 0; d < nd; ++d) {
              const auto cs = static_cast<int64_t>(core.ext[d]);
              const auto r = static_cast<int64_t>(radii[d]);
              if (step[d] < 0) box.hi[d] = std::min(core.hi[d], core.lo[d] + r);
              if (step[d] > 0) box.lo[d] = core.lo[d] + cs - r;
              neighbor[d] += step[d] * cs;
              empty = empty || box.lo[d] >= box.hi[d];
            }
            if (!empty && mapper->InBounds(neighbor)) {
              // The same box in the neighbor's expanded layout.
              ChunkBox to = box;
              to.origin = neighbor;
              to = Expand(std::move(to), radii);
              const ChunkId ncid = mapper->ChunkIdFromCoords(neighbor);
              uint32_t begin = 0;
              uint32_t target = 0;
              box.ForEachValid(
                  chunk,
                  [&](const std::vector<size_t>& idx, uint32_t row_begin) {
                    begin = row_begin;
                    target = to.RowStart(idx);
                  },
                  [&](uint32_t off, double v) {
                    out_runs.Add(ncid, target + (off - begin), v);
                  });
            }
            size_t d = 0;
            while (d < nd && ++step[d] > 1) step[d++] = -1;
            if (d == nd) break;
          }
        }
        return out_runs.Take();
      },
      "haloExchange");

  out.chunks_ = GroupIntoChunks(
      std::move(runs), expanded_cells, ModePolicy::Auto(),
      std::make_shared<HashPartitioner<ChunkId>>(
          base.chunks().num_partitions()));
  return out;
}

ArrayRdd OverlapArrayRdd::WindowAggregate(const AggregateFunction& fn) const {
  std::shared_ptr<const AggregateFunction> f = fn.Clone();
  auto result = chunks_.AsRdd().Map(
      [mapper = mapper_, radii = radii_, f](
          const std::pair<ChunkId, Chunk>& rec) {
        const auto& [cid, chunk] = rec;
        const ArrayMetadata& m = mapper->metadata();
        const size_t nd = m.num_dims();
        // The core cells, in the base layout and in the expanded one.
        const ChunkBox core = ChunkBox::Core(*mapper, cid);
        const ChunkBox ex = Expand(core, radii);
        std::vector<uint64_t> stride(nd);
        for (size_t d = nd, s = 1; d-- > 0; s *= ex.ext[d]) stride[d] = s;
        std::vector<std::pair<uint32_t, double>> out_cells;
        std::vector<int64_t> lo(nd), hi(nd), cur(nd);
        const std::vector<size_t>* idx = nullptr;
        uint32_t begin = 0;
        uint32_t out_begin = 0;
        ex.ForEachValid(
            chunk,
            [&](const std::vector<size_t>& row, uint32_t row_begin) {
              idx = &row;
              begin = row_begin;
              out_begin = core.RowStart(row);
            },
            [&](uint32_t off, double) {
              // The per-dim (2*radii[d]+1) neighborhood, clipped to the
              // array, in expanded indices; dimension 0 runs fastest.
              for (size_t d = 0; d < nd; ++d) {
                const int64_t p =
                    core.lo[d] + static_cast<int64_t>(
                                     d + 1 == nd ? off - begin : (*idx)[d]);
                const auto r = static_cast<int64_t>(radii[d]);
                const int64_t end =
                    m.dim(d).start + static_cast<int64_t>(m.dim(d).size);
                lo[d] = std::max(p - r, m.dim(d).start) - ex.origin[d];
                hi[d] = std::min(p + r + 1, end) - ex.origin[d];
                cur[d] = lo[d];
              }
              AggState state = f->Initialize();
              for (size_t d = 0; d < nd;) {
                uint64_t n_off = 0;
                for (size_t k = 0; k < nd; ++k) {
                  n_off += static_cast<uint64_t>(cur[k]) * stride[k];
                }
                const auto n = static_cast<uint32_t>(n_off);
                if (chunk.Valid(n)) f->Accumulate(&state, chunk.Value(n));
                for (d = 0; d < nd && ++cur[d] == hi[d]; ++d) {
                  cur[d] = lo[d];
                }
              }
              out_cells.emplace_back(out_begin + (off - begin),
                                     f->Evaluate(state));
            });
        const uint32_t cells = mapper->cells_per_chunk();
        const ChunkMode mode = Chunk::ChooseMode(cells, out_cells.size());
        return std::pair<ChunkId, Chunk>(
            cid, Chunk::FromCells(cells, std::move(out_cells), mode));
      });
  auto filtered = result.Filter([](const std::pair<ChunkId, Chunk>& rec) {
    return rec.second.num_valid() > 0;
  });
  return ArrayRdd(mapper_->metadata(),
                  ToPair<ChunkId, Chunk>(std::move(filtered),
                                         chunks_.partitioner()));
}

Result<ArrayRdd> OverlapArrayRdd::RegridAggregateLocal(
    const AggregateFunction& fn, const std::vector<uint64_t>& grid) const {
  const ArrayMetadata& meta = mapper_->metadata();
  SPANGLE_ASSIGN_OR_RETURN(ArrayMetadata out_meta,
                           internal::RegridMetadata(meta, grid));
  for (size_t d = 0; d < meta.num_dims(); ++d) {
    const uint64_t needed =
        meta.dim(d).chunk_size % grid[d] != 0 ? grid[d] - 1 : 0;
    if (radii_[d] < needed) {
      return Status::FailedPrecondition(
          "overlap radius " + std::to_string(radii_[d]) + " along dim " +
          std::to_string(d) + " < required straddle " +
          std::to_string(needed));
    }
  }
  auto out_mapper = std::make_shared<Mapper>(out_meta);
  std::shared_ptr<const AggregateFunction> f = fn.Clone();

  // A chunk owns every output block whose input-space origin lies inside
  // its core region and walks only those blocks' cells: from the first
  // origin at or after the chunk start to the end of the last owned
  // block, reading straddling cells from the ghost region.
  auto runs = chunks_.AsRdd().MapPartitionsWithIndex<
      std::pair<ChunkId, CellRun>>(
      [mapper = mapper_, out_mapper, radii = radii_, grid, f](
          int, const std::vector<std::pair<ChunkId, Chunk>>& recs) {
        const ArrayMetadata& m = mapper->metadata();
        const uint64_t cpc = out_mapper->cells_per_chunk();
        internal::BlockAccumulator acc(m, grid, out_mapper, f);
        internal::ChunkRuns out;
        const auto emit = [&](uint64_t key, const AggState& state) {
          out.Add(key / cpc, static_cast<uint32_t>(key % cpc),
                  f->Evaluate(state));
        };
        for (const auto& [cid, chunk] : recs) {
          ChunkBox box = ChunkBox::Core(*mapper, cid);
          for (size_t d = 0; d < m.num_dims(); ++d) {
            const int64_t start = m.dim(d).start;
            const auto g = static_cast<int64_t>(grid[d]);
            const int64_t cend = box.hi[d];
            box.lo[d] = start + (box.lo[d] - start + g - 1) / g * g;
            box.hi[d] = std::min(start + ((cend - 1 - start) / g + 1) * g,
                                 start + static_cast<int64_t>(m.dim(d).size));
            if (box.lo[d] >= cend) box.hi[d] = box.lo[d];  // owns nothing
          }
          acc.Walk(chunk, Expand(std::move(box), radii), emit);
        }
        return out.Take();
      },
      "regridLocal");
  return ArrayRdd(out_meta, GroupIntoChunks(std::move(runs),
                                            out_mapper->cells_per_chunk()));
}

}  // namespace spangle
