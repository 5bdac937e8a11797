#include "baselines/tile_engine.h"

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "engine/first_seen_groups.h"

namespace spangle {

namespace {
inline bool InBox(int64_t img, int64_t x, int64_t y, const QueryParams& q) {
  if (!q.use_range) return true;
  return img >= q.lo[0] && img <= q.hi[0] && x >= q.lo[1] && x <= q.hi[1] &&
         y >= q.lo[2] && y <= q.hi[2];
}
}  // namespace

Result<RasterFramesEngine> RasterFramesEngine::Load(
    Context* ctx, const RasterData& data, uint32_t tile_edge,
    const MemoryBudget& budget) {
  if (data.meta.num_dims() != 3) {
    return Status::InvalidArgument("RasterFrames engine expects (img, x, y)");
  }
  if (tile_edge == 0) {
    return Status::InvalidArgument("tile edge must be positive");
  }
  RasterFramesEngine engine;
  engine.attr_names_ = data.attr_names;
  engine.tile_edge_ = tile_edge;
  const uint64_t images = data.meta.dim(0).size;
  const uint64_t width = data.meta.dim(1).size;
  const uint64_t height = data.meta.dim(2).size;
  const uint64_t tx_count = (width + tile_edge - 1) / tile_edge;
  const uint64_t ty_count = (height + tile_edge - 1) / tile_edge;
  // Only tiles holding data are kept (the DataFrame row exists per tile),
  // but each kept tile is dense. Estimate: assume every tile with at
  // least one valid cell materializes fully.
  const double nan = std::nan("");
  // Driver-side assembly ("it reads them in the master node and spreads
  // them to workers").
  std::map<std::tuple<int64_t, int64_t, int64_t>, Tile> tiles;
  for (size_t b = 0; b < data.cells.size(); ++b) {
    for (const auto& cell : data.cells[b]) {
      const int64_t img = cell.pos[0];
      const int64_t tx = cell.pos[1] / tile_edge;
      const int64_t ty = cell.pos[2] / tile_edge;
      auto [it, inserted] = tiles.try_emplace({img, tx, ty});
      Tile& tile = it->second;
      if (inserted) {
        tile.img = img;
        tile.tx = tx * tile_edge;
        tile.ty = ty * tile_edge;
        tile.edge = tile_edge;
        tile.bands.assign(
            data.attr_names.size(),
            std::vector<double>(static_cast<size_t>(tile_edge) * tile_edge,
                                nan));
      }
      const uint64_t dx = static_cast<uint64_t>(cell.pos[1]) % tile_edge;
      const uint64_t dy = static_cast<uint64_t>(cell.pos[2]) % tile_edge;
      tile.bands[b][dx * tile_edge + dy] = cell.value;
    }
  }
  const uint64_t need = tiles.size() * data.attr_names.size() *
                        uint64_t{tile_edge} * tile_edge * sizeof(double);
  SPANGLE_RETURN_NOT_OK(budget.Reserve(need, "dense tiles"));
  (void)images;
  (void)tx_count;
  (void)ty_count;
  std::vector<Tile> flat;
  flat.reserve(tiles.size());
  for (auto& [key, tile] : tiles) flat.push_back(std::move(tile));
  engine.tiles_ = ctx->Parallelize(std::move(flat));
  engine.tiles_.Cache();
  return engine;
}

Result<size_t> RasterFramesEngine::BandIndex(const std::string& attr) const {
  for (size_t b = 0; b < attr_names_.size(); ++b) {
    if (attr_names_[b] == attr) return b;
  }
  return Status::NotFound("no band '" + attr + "'");
}

Result<double> RasterFramesEngine::Q1Average(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  struct SumCount {
    double sum = 0;
    uint64_t n = 0;
  };
  auto sc = Scan<SumCount>(
      SumCount{},
      [band, q](SumCount acc, const Tile& t) {
        for (uint32_t dx = 0; dx < t.edge; ++dx) {
          for (uint32_t dy = 0; dy < t.edge; ++dy) {
            const double v = t.bands[band][dx * t.edge + dy];
            if (std::isnan(v)) continue;
            if (!InBox(t.img, t.tx + dx, t.ty + dy, q)) continue;
            acc.sum += v;
            acc.n += 1;
          }
        }
        return acc;
      },
      [](SumCount a, const SumCount& b) {
        a.sum += b.sum;
        a.n += b.n;
        return a;
      });
  return sc.n == 0 ? 0.0 : sc.sum / static_cast<double>(sc.n);
}

Result<uint64_t> RasterFramesEngine::Q2Regrid(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  if (q.grid.size() != 3 || q.grid[1] != tile_edge_ ||
      q.grid[2] != tile_edge_) {
    return Status::FailedPrecondition(
        "RasterFrames regrids only at its fixed tile size");
  }
  // The tile *is* the output block: one pass, no reshaping at all.
  return tiles_.Aggregate<uint64_t>(
      0,
      [band, q](uint64_t acc, const Tile& t) {
        uint64_t n = 0;
        for (uint32_t i = 0; i < t.edge * t.edge; ++i) {
          const double v = t.bands[band][i];
          if (!std::isnan(v) &&
              InBox(t.img, t.tx + i / t.edge, t.ty + i % t.edge, q)) {
            ++n;
          }
        }
        return acc + (n > 0 ? 1 : 0);
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

Result<double> RasterFramesEngine::Q3FilteredAverage(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  const double threshold = q.threshold;
  struct SumCount {
    double sum = 0;
    uint64_t n = 0;
  };
  auto sc = Scan<SumCount>(
      SumCount{},
      [band, q, threshold](SumCount acc, const Tile& t) {
        for (uint32_t dx = 0; dx < t.edge; ++dx) {
          for (uint32_t dy = 0; dy < t.edge; ++dy) {
            const double v = t.bands[band][dx * t.edge + dy];
            if (std::isnan(v) || v <= threshold) continue;
            if (!InBox(t.img, t.tx + dx, t.ty + dy, q)) continue;
            acc.sum += v;
            acc.n += 1;
          }
        }
        return acc;
      },
      [](SumCount a, const SumCount& b) {
        a.sum += b.sum;
        a.n += b.n;
        return a;
      });
  return sc.n == 0 ? 0.0 : sc.sum / static_cast<double>(sc.n);
}

Result<uint64_t> RasterFramesEngine::Q4Polygons(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band1, BandIndex(q.attr));
  SPANGLE_ASSIGN_OR_RETURN(size_t band2, BandIndex(q.attr2));
  const double t1 = q.threshold, t2 = q.threshold2;
  return Scan<uint64_t>(
      0,
      [band1, band2, q, t1, t2](uint64_t acc, const Tile& t) {
        for (uint32_t dx = 0; dx < t.edge; ++dx) {
          for (uint32_t dy = 0; dy < t.edge; ++dy) {
            const double v1 = t.bands[band1][dx * t.edge + dy];
            const double v2 = t.bands[band2][dx * t.edge + dy];
            if (std::isnan(v1) || v1 <= t1) continue;
            if (std::isnan(v2) || v2 <= t2) continue;
            if (!InBox(t.img, t.tx + dx, t.ty + dy, q)) continue;
            ++acc;
          }
        }
        return acc;
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

Result<uint64_t> RasterFramesEngine::Q5Density(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  if (q.grid.size() != 3) {
    return Status::InvalidArgument("Q5 grid must be 3-dimensional");
  }
  const auto grid = q.grid;
  // Tiles rarely align with the Q5 grouping grid, so partial counts
  // shuffle and merge.
  auto partials = tiles_.FlatMap([band, q, grid](const Tile& t) {
    internal::FirstSeenGroups<uint64_t, uint64_t> acc;
    for (uint32_t dx = 0; dx < t.edge; ++dx) {
      for (uint32_t dy = 0; dy < t.edge; ++dy) {
        const double v = t.bands[band][dx * t.edge + dy];
        if (std::isnan(v)) continue;
        const int64_t x = t.tx + dx, y = t.ty + dy;
        if (!InBox(t.img, x, y, q)) continue;
        const uint64_t key =
            ((static_cast<uint64_t>(t.img) / grid[0]) * 100003 +
             static_cast<uint64_t>(x) / grid[1]) *
                100003 +
            static_cast<uint64_t>(y) / grid[2];
        acc[key] += 1;
      }
    }
    return acc.Take();
  });
  auto merged = ToPair<uint64_t, uint64_t>(std::move(partials))
                    .ReduceByKey([](const uint64_t& a, const uint64_t& b) {
                      return a + b;
                    });
  const double cut = q.min_count;
  return merged.AsRdd().Aggregate<uint64_t>(
      0,
      [cut](uint64_t acc, const std::pair<uint64_t, uint64_t>& rec) {
        return acc + (static_cast<double>(rec.second) > cut ? 1 : 0);
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

}  // namespace spangle
