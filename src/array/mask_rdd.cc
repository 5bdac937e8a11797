#include "array/mask_rdd.h"

#include <algorithm>
#include <unordered_set>

#include "engine/runtime_profile.h"

namespace spangle {

namespace {

/// RuntimeProfile hook (no-op off the profiling path): the set-bit
/// fraction of each bitmask a reconciliation combinator produces — the
/// paper's evidence for how selective a MaskRDD actually is.
void RecordDensity(const Bitmask& m) {
  prof::RecordMaskDensity(m.CountAll(), m.num_bits());
}

}  // namespace

Bitmask RangeMaskForChunk(const Mapper& mapper, ChunkId id, const Coords& lo,
                          const Coords& hi) {
  Bitmask mask(mapper.cells_per_chunk());
  // The closed box [lo, hi] clipped to the chunk's full extent; one
  // SetRange per row.
  ChunkBox box = ChunkBox::Core(mapper, id);
  for (size_t d = 0; d < box.lo.size(); ++d) {
    box.lo[d] = std::max(box.lo[d], lo[d]);
    box.hi[d] = std::min(box.origin[d] + static_cast<int64_t>(box.ext[d]),
                         hi[d] + 1);
    if (box.lo[d] >= box.hi[d]) return mask;  // disjoint: all zeros
  }
  std::vector<size_t> idx(box.lo.size(), 0);
  do {
    const uint32_t begin = box.RowStart(idx);
    mask.SetRange(begin, begin + box.width());
  } while (box.NextRow(&idx));
  return mask;
}

MaskRdd MaskRdd::FromArray(const ArrayRdd& array) {
  auto masks =
      array.chunks().MapValues([](const Chunk& c) { return c.FlatMask(); });
  return MaskRdd(array.mapper_ptr(), std::move(masks));
}

MaskRdd MaskRdd::And(const MaskRdd& other) const {
  auto joined = masks_.Join(other.masks_);
  auto combined =
      joined
          .MapValues([](const std::pair<Bitmask, Bitmask>& pair) {
            Bitmask out = pair.first;
            out.AndWith(pair.second);
            RecordDensity(out);
            return out;
          })
          .Filter([](const std::pair<ChunkId, Bitmask>& rec) {
            return !rec.second.AllZero();
          });
  return MaskRdd(mapper_, std::move(combined));
}

MaskRdd MaskRdd::Or(const MaskRdd& other) const {
  auto grouped = masks_.CoGroup(other.masks_);
  auto combined = grouped.MapValues(
      [](const std::pair<std::vector<Bitmask>, std::vector<Bitmask>>& sides) {
        Bitmask out;
        bool has = false;
        for (const auto& side : {sides.first, sides.second}) {
          for (const Bitmask& m : side) {
            if (!has) {
              out = m;
              has = true;
            } else {
              out.OrWith(m);
            }
          }
        }
        RecordDensity(out);
        return out;
      });
  return MaskRdd(mapper_, std::move(combined));
}

MaskRdd MaskRdd::AndRange(const Coords& lo, const Coords& hi) const {
  // Prune whole chunks against the box first, then AND the virtual
  // bitmask of the box into each survivor (Fig. 4a).
  auto ids = mapper_->ChunkIdsInRange(lo, hi);
  auto keep = std::make_shared<std::unordered_set<ChunkId>>(ids.begin(),
                                                            ids.end());
  std::shared_ptr<const Mapper> mapper = mapper_;
  auto pruned = masks_.Filter(
      [keep](const std::pair<ChunkId, Bitmask>& rec) {
        return keep->count(rec.first) > 0;
      });
  auto ranged =
      pruned.AsRdd()
          .Map([mapper, lo, hi](const std::pair<ChunkId, Bitmask>& rec) {
            Bitmask out = rec.second;
            out.AndWith(RangeMaskForChunk(*mapper, rec.first, lo, hi));
            RecordDensity(out);
            return std::pair<ChunkId, Bitmask>(rec.first, std::move(out));
          })
          .Filter([](const std::pair<ChunkId, Bitmask>& rec) {
            return !rec.second.AllZero();
          });
  return MaskRdd(mapper_, PairRdd<ChunkId, Bitmask>(std::move(ranged),
                                                    masks_.partitioner()));
}

MaskRdd MaskRdd::AndPredicate(const ArrayRdd& attr,
                              std::function<bool(double)> pred) const {
  // Evaluate the predicate over the attribute's values to build the
  // per-chunk pass mask, then AND into the global view (Fig. 4b).
  auto pass = attr.chunks().MapValues([pred](const Chunk& c) {
    Bitmask mask(c.num_cells());
    c.ForEachValid([&](uint32_t off, double v) {
      if (pred(v)) mask.Set(off);
    });
    RecordDensity(mask);
    return mask;
  });
  MaskRdd pass_view(mapper_, std::move(pass));
  return And(pass_view);
}

ArrayRdd MaskRdd::ApplyTo(const ArrayRdd& attr) const {
  auto joined = attr.chunks().Join(masks_);
  auto applied =
      joined
          .MapValues([](const std::pair<Chunk, Bitmask>& pair) {
            return pair.first.ApplyMask(pair.second);
          })
          .Filter([](const std::pair<ChunkId, Chunk>& rec) {
            return rec.second.num_valid() > 0;
          });
  return ArrayRdd(attr.metadata(), std::move(applied));
}

uint64_t MaskRdd::CountValid() const {
  return masks_.AsRdd().Aggregate<uint64_t>(
      0,
      [](uint64_t acc, const std::pair<ChunkId, Bitmask>& rec) {
        return acc + rec.second.CountAll();
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

}  // namespace spangle
