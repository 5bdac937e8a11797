#include "ops/accumulator.h"

#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/first_seen_groups.h"

namespace spangle {

namespace {

struct LineCell {
  uint32_t offset;
  double value;
};

/// A chunk's valid cells grouped into lines along `axis`, each in axis
/// order. A line's key is the row-major index of its cells in the array
/// with the axis dropped, so every chunk along the axis agrees on it.
/// Lines come in first-seen order.
std::vector<std::pair<uint64_t, std::vector<LineCell>>> ChunkLines(
    const Mapper& mapper, size_t axis, ChunkId cid, const Chunk& chunk) {
  const ArrayMetadata& meta = mapper.metadata();
  const size_t last = meta.num_dims() - 1;
  std::vector<uint64_t> stride(last + 1, 0);
  for (size_t d = last + 1, s = 1; d-- > 0;) {
    if (d == axis) continue;
    stride[d] = s;
    s *= meta.dim(d).size;
  }
  const ChunkBox box = ChunkBox::Core(mapper, cid);
  internal::FirstSeenGroups<uint64_t, std::vector<LineCell>> lines;
  uint64_t key = 0;
  uint32_t begin = 0;
  box.ForEachValid(
      chunk,
      [&](const std::vector<size_t>& idx, uint32_t row_begin) {
        key = 0;
        for (size_t d = 0; d <= last; ++d) {
          key += (static_cast<uint64_t>(box.lo[d] - meta.dim(d).start) +
                  (d == last ? 0 : idx[d])) *
                 stride[d];
        }
        begin = row_begin;
      },
      [&](uint32_t off, double v) {
        lines[key + (off - begin) * stride[last]].push_back({off, v});
      });
  return lines.Take();
}

using CarryMap = std::unordered_map<uint64_t, double>;  // line -> carry-in
using BinOp = std::function<double(double, double)>;

/// Local prefix pass: returns the prefixed chunk and per-line totals. Line
/// `key` starts from carries[key * scale + shift] when present.
std::pair<Chunk, std::vector<std::pair<uint64_t, double>>> PrefixChunk(
    const Mapper& mapper, size_t axis, ChunkId cid, const Chunk& chunk,
    const CarryMap& carries, uint64_t scale, uint64_t shift, const BinOp& op,
    double identity) {
  auto lines = ChunkLines(mapper, axis, cid, chunk);
  std::vector<std::pair<uint32_t, double>> out_cells;
  out_cells.reserve(chunk.num_valid());
  std::vector<std::pair<uint64_t, double>> totals;
  totals.reserve(lines.size());
  for (auto& [key, cells] : lines) {
    auto it = carries.find(key * scale + shift);
    double running = it == carries.end() ? identity : it->second;
    double total = identity;
    for (const LineCell& c : cells) {
      running = op(running, c.value);
      total = op(total, c.value);
      out_cells.emplace_back(c.offset, running);
    }
    totals.emplace_back(key, total);
  }
  Chunk out = Chunk::FromCells(chunk.num_cells(), std::move(out_cells),
                               chunk.mode());
  return {std::move(out), std::move(totals)};
}

}  // namespace

Result<ArrayRdd> AccumulateOp(const ArrayRdd& in, const std::string& dim_name,
                              AccumulateMode mode,
                              std::function<double(double, double)> op_in,
                              double identity) {
  auto op = std::make_shared<BinOp>(std::move(op_in));
  const ArrayMetadata& meta = in.metadata();
  SPANGLE_ASSIGN_OR_RETURN(size_t axis, meta.DimIndex(dim_name));
  auto mapper = in.mapper_ptr();
  const uint64_t layers = meta.chunks_along(axis);

  if (mode == AccumulateMode::kAsynchronous) {
    // Pass 1 (parallel): local prefixes + per-(chunk, line) totals.
    struct LayerTotal {
      uint64_t line;
      uint64_t layer;
      double total;
    };
    auto totals = in.chunks().AsRdd().FlatMap(
        [mapper, axis, op, identity](const std::pair<ChunkId, Chunk>& rec) {
          auto lines = ChunkLines(*mapper, axis, rec.first, rec.second);
          const uint64_t layer =
              mapper->ChunkGridCoords(rec.first)[axis];
          std::vector<LayerTotal> out;
          for (auto& [key, cells] : lines) {
            double t = identity;
            for (const LineCell& c : cells) t = (*op)(t, c.value);
            out.push_back(LayerTotal{key, layer, t});
          }
          return out;
        });
    // Driver: exclusive prefix of layer totals along each line.
    std::map<std::pair<uint64_t, uint64_t>, double> layer_totals;
    for (const auto& t : totals.Collect()) {
      auto [it, inserted] = layer_totals.try_emplace({t.line, t.layer},
                                                     t.total);
      if (!inserted) it->second = (*op)(it->second, t.total);
    }
    auto carries = std::make_shared<CarryMap>();  // (line*layers+layer)
    std::unordered_map<uint64_t, double> running;
    for (const auto& [key, total] : layer_totals) {
      const auto [line, layer] = key;
      auto [it, inserted] = running.try_emplace(line, identity);
      (*carries)[line * layers + layer] = it->second;
      it->second = (*op)(it->second, total);
    }
    // Pass 2 (parallel): re-prefix with carry-in.
    const uint64_t n_layers = layers;
    auto result = in.chunks().AsRdd().Map(
        [mapper, axis, carries, n_layers, op, identity](
            const std::pair<ChunkId, Chunk>& rec) {
          const uint64_t layer = mapper->ChunkGridCoords(rec.first)[axis];
          return std::pair<ChunkId, Chunk>(
              rec.first, PrefixChunk(*mapper, axis, rec.first, rec.second,
                                     *carries, n_layers, layer, *op, identity)
                             .first);
        });
    return ArrayRdd(meta, ToPair<ChunkId, Chunk>(std::move(result),
                                                 in.chunks().partitioner()));
  }

  // Synchronous: one stage per chunk layer along the axis; each layer
  // consumes the carries produced by the previous one.
  CarryMap carry;
  std::optional<Rdd<std::pair<ChunkId, Chunk>>> acc_out;
  for (uint64_t k = 0; k < layers; ++k) {
    auto layer_chunks = in.chunks().AsRdd().Filter(
        [mapper, axis, k](const std::pair<ChunkId, Chunk>& rec) {
          return mapper->ChunkGridCoords(rec.first)[axis] == k;
        });
    auto carry_ptr = std::make_shared<CarryMap>(carry);
    auto processed = layer_chunks.Map(
        [mapper, axis, carry_ptr, op, identity](
            const std::pair<ChunkId, Chunk>& rec) {
          auto [out, totals] = PrefixChunk(*mapper, axis, rec.first,
                                           rec.second, *carry_ptr, 1, 0, *op,
                                           identity);
          return std::make_pair(
              std::pair<ChunkId, Chunk>(rec.first, std::move(out)), totals);
        });
    // Barrier: materialize this layer, harvest carries for the next.
    auto collected = processed.Collect();
    std::vector<std::pair<ChunkId, Chunk>> layer_out;
    for (auto& [rec, totals] : collected) {
      for (const auto& [line, total] : totals) {
        auto [it, inserted] = carry.try_emplace(line, identity);
        it->second = (*op)(it->second, total);
      }
      layer_out.push_back(std::move(rec));
    }
    auto layer_rdd = in.ctx()->Parallelize(std::move(layer_out),
                                           in.chunks().num_partitions());
    acc_out = acc_out.has_value() ? acc_out->Union(layer_rdd) : layer_rdd;
  }
  if (!acc_out.has_value()) {
    return ArrayRdd(meta, in.chunks());  // no chunks at all
  }
  return ArrayRdd(meta, ToPair<ChunkId, Chunk>(std::move(*acc_out)));
}

Result<ArrayRdd> AccumulateSum(const ArrayRdd& in, const std::string& dim_name,
                               AccumulateMode mode) {
  return AccumulateOp(in, dim_name, mode,
                      [](double a, double b) { return a + b; }, 0.0);
}

Result<ArrayRdd> AccumulateProduct(const ArrayRdd& in,
                                   const std::string& dim_name,
                                   AccumulateMode mode) {
  return AccumulateOp(in, dim_name, mode,
                      [](double a, double b) { return a * b; }, 1.0);
}

Result<ArrayRdd> AccumulateMax(const ArrayRdd& in, const std::string& dim_name,
                               AccumulateMode mode) {
  return AccumulateOp(in, dim_name, mode,
                      [](double a, double b) { return a > b ? a : b; },
                      -std::numeric_limits<double>::infinity());
}

}  // namespace spangle
