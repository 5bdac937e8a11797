#include "ops/transform.h"

namespace spangle {

Result<ArrayRdd> Slice(const ArrayRdd& in, const std::string& dim_name,
                       int64_t coordinate) {
  const ArrayMetadata& meta = in.metadata();
  SPANGLE_ASSIGN_OR_RETURN(size_t axis, meta.DimIndex(dim_name));
  if (meta.num_dims() < 2) {
    return Status::InvalidArgument("cannot slice a 1-d array");
  }
  const int64_t rel = coordinate - meta.dim(axis).start;
  if (rel < 0 || rel >= static_cast<int64_t>(meta.dim(axis).size)) {
    return Status::OutOfRange("slice coordinate outside the dimension");
  }
  std::vector<Dimension> out_dims;
  for (size_t d = 0; d < meta.num_dims(); ++d) {
    if (d != axis) out_dims.push_back(meta.dim(d));
  }
  SPANGLE_ASSIGN_OR_RETURN(ArrayMetadata out_meta,
                           ArrayMetadata::Make(std::move(out_dims)));
  auto out_mapper = std::make_shared<Mapper>(out_meta);
  auto in_mapper = in.mapper_ptr();
  // Only chunks whose grid position covers the slice plane matter.
  const uint64_t wanted_grid =
      static_cast<uint64_t>(rel) / meta.dim(axis).chunk_size;
  auto relevant = in.chunks().Filter(
      [in_mapper, axis, wanted_grid](const std::pair<ChunkId, Chunk>& rec) {
        return in_mapper->ChunkGridCoords(rec.first)[axis] == wanted_grid;
      });
  auto runs = relevant.AsRdd().MapPartitionsWithIndex<
      std::pair<ChunkId, CellRun>>(
      [in_mapper, out_mapper, axis, coordinate](
          int, const std::vector<std::pair<ChunkId, Chunk>>& recs) {
        internal::ChunkRuns out;
        Coords reduced(in_mapper->metadata().num_dims() - 1);
        for (const auto& [cid, chunk] : recs) {
          chunk.ForEachValid([&](uint32_t off, double v) {
            const Coords pos = in_mapper->CoordsFromChunkOffset(cid, off);
            if (pos[axis] != coordinate) return;
            size_t k = 0;
            for (size_t d = 0; d < pos.size(); ++d) {
              if (d != axis) reduced[k++] = pos[d];
            }
            out.Add(out_mapper->ChunkIdFromCoords(reduced),
                    out_mapper->LocalOffset(reduced), v);
          });
        }
        return out.Take();
      },
      "slice");
  return ArrayRdd(out_meta, GroupIntoChunks(std::move(runs),
                                            out_mapper->cells_per_chunk()));
}

Result<SpangleArray> Apply(
    const SpangleArray& in, const std::string& new_attr,
    const std::vector<std::string>& inputs,
    std::function<double(const std::vector<double>&)> fn) {
  if (inputs.empty()) {
    return Status::InvalidArgument("Apply needs at least one input");
  }
  if (in.HasAttribute(new_attr)) {
    return Status::AlreadyExists("attribute '" + new_attr +
                                 "' already exists");
  }
  // Reconciled views so pending mask updates are honored.
  SPANGLE_ASSIGN_OR_RETURN(ArrayRdd first, in.Attribute(inputs[0]));
  auto joined = first.chunks().MapValues(
      [](const Chunk& c) { return std::vector<Chunk>{c}; });
  for (size_t k = 1; k < inputs.size(); ++k) {
    SPANGLE_ASSIGN_OR_RETURN(ArrayRdd next, in.Attribute(inputs[k]));
    joined = joined.Join(next.chunks())
                 .MapValues([](const std::pair<std::vector<Chunk>, Chunk>&
                                   pair) {
                   std::vector<Chunk> out = pair.first;
                   out.push_back(pair.second);
                   return out;
                 });
  }
  const uint32_t cpc =
      static_cast<uint32_t>(in.metadata().cells_per_chunk());
  auto derived =
      joined
          .MapValues([fn = std::move(fn), cpc](const std::vector<Chunk>& cs) {
            // Cells valid in every input: AND of all masks (and-join).
            Bitmask all = cs[0].FlatMask();
            for (size_t k = 1; k < cs.size(); ++k) {
              all.AndWith(cs[k].FlatMask());
            }
            std::vector<std::pair<uint32_t, double>> cells;
            cells.reserve(all.CountAll());
            std::vector<double> args(cs.size());
            all.ForEachSetBit([&](size_t off) {
              for (size_t k = 0; k < cs.size(); ++k) {
                args[k] = cs[k].Value(static_cast<uint32_t>(off));
              }
              cells.emplace_back(static_cast<uint32_t>(off), fn(args));
            });
            const ChunkMode mode = Chunk::ChooseMode(cpc, cells.size());
            return Chunk::FromCells(cpc, std::move(cells), mode);
          })
          .Filter([](const std::pair<ChunkId, Chunk>& rec) {
            return rec.second.num_valid() > 0;
          });
  ArrayRdd derived_rdd(in.metadata(), std::move(derived));
  std::vector<std::pair<std::string, ArrayRdd>> attrs;
  for (const auto& name : in.attribute_names()) {
    attrs.emplace_back(name, *in.RawAttribute(name));
  }
  attrs.emplace_back(new_attr, std::move(derived_rdd));
  return in.WithAttributes(std::move(attrs));
}

Result<ArrayRdd> Concat(const ArrayRdd& left, const ArrayRdd& right,
                        const std::string& dim_name) {
  const ArrayMetadata& lm = left.metadata();
  const ArrayMetadata& rm = right.metadata();
  SPANGLE_ASSIGN_OR_RETURN(size_t axis, lm.DimIndex(dim_name));
  if (lm.num_dims() != rm.num_dims()) {
    return Status::InvalidArgument("concat dimensionality mismatch");
  }
  for (size_t d = 0; d < lm.num_dims(); ++d) {
    const Dimension& a = lm.dim(d);
    const Dimension& b = rm.dim(d);
    if (a.name != b.name || a.chunk_size != b.chunk_size ||
        (d != axis && (a.size != b.size || a.start != b.start))) {
      return Status::InvalidArgument(
          "concat requires matching dimensions except along the axis");
    }
  }
  std::vector<Dimension> out_dims = lm.dims();
  out_dims[axis].size += rm.dim(axis).size;
  SPANGLE_ASSIGN_OR_RETURN(ArrayMetadata out_meta,
                           ArrayMetadata::Make(std::move(out_dims)));
  auto out_mapper = std::make_shared<Mapper>(out_meta);
  const int64_t shift = static_cast<int64_t>(lm.dim(axis).size) +
                        lm.dim(axis).start - rm.dim(axis).start;

  // Each side's cells, shifted along the axis, grouped into runs.
  auto remap = [&out_mapper, axis](const ArrayRdd& side, int64_t delta) {
    return side.chunks().AsRdd().MapPartitionsWithIndex<
        std::pair<ChunkId, CellRun>>(
        [out_mapper, src = side.mapper_ptr(), axis, delta](
            int, const std::vector<std::pair<ChunkId, Chunk>>& recs) {
          internal::ChunkRuns out;
          for (const auto& [cid, chunk] : recs) {
            chunk.ForEachValid([&](uint32_t off, double v) {
              Coords pos = src->CoordsFromChunkOffset(cid, off);
              pos[axis] += delta;
              out.Add(out_mapper->ChunkIdFromCoords(pos),
                      out_mapper->LocalOffset(pos), v);
            });
          }
          return out.Take();
        },
        "concat");
  };
  auto runs = remap(left, 0).Union(remap(right, shift));
  return ArrayRdd(out_meta, GroupIntoChunks(std::move(runs),
                                            out_mapper->cells_per_chunk()));
}

}  // namespace spangle
