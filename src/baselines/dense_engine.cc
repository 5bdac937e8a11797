#include "baselines/dense_engine.h"

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

Result<SciSparkEngine> SciSparkEngine::Load(Context* ctx,
                                            const RasterData& data,
                                            const MemoryBudget& budget) {
  if (data.meta.num_dims() != 3) {
    return Status::InvalidArgument("SciSpark engine expects (img, x, y)");
  }
  SciSparkEngine engine;
  engine.attr_names_ = data.attr_names;
  engine.width_ = data.meta.dim(1).size;
  engine.height_ = data.meta.dim(2).size;
  const uint64_t images = data.meta.dim(0).size;
  const uint64_t plane = engine.width_ * engine.height_;
  // SciSpark loads each NetCDF variable as a dense ndarray before it can
  // split anything: the whole dense footprint must fit.
  const uint64_t need =
      images * data.attr_names.size() * plane * sizeof(double);
  SPANGLE_RETURN_NOT_OK(budget.Reserve(need, "dense image planes"));

  const double nan = std::nan("");
  std::vector<Frame> frames(images);
  for (uint64_t img = 0; img < images; ++img) {
    frames[img].img = static_cast<int64_t>(img);
    frames[img].bands.assign(data.attr_names.size(),
                             std::vector<double>(plane, nan));
  }
  for (size_t b = 0; b < data.cells.size(); ++b) {
    for (const auto& cell : data.cells[b]) {
      const uint64_t img = static_cast<uint64_t>(cell.pos[0]);
      frames[img].bands[b][static_cast<uint64_t>(cell.pos[1]) *
                               engine.height_ +
                           static_cast<uint64_t>(cell.pos[2])] = cell.value;
    }
  }
  engine.frames_ = ctx->Parallelize(std::move(frames));
  engine.frames_.Cache();
  return engine;
}

Result<size_t> SciSparkEngine::BandIndex(const std::string& attr) const {
  for (size_t b = 0; b < attr_names_.size(); ++b) {
    if (attr_names_[b] == attr) return b;
  }
  return Status::NotFound("no band '" + attr + "'");
}

Result<double> SciSparkEngine::Q1Average(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  const uint64_t h = height_, w = width_;
  struct SumCount {
    double sum = 0;
    uint64_t n = 0;
  };
  auto sc = frames_.Aggregate<SumCount>(
      SumCount{},
      [band, h, w, q](SumCount acc, const Frame& f) {
        // Dense scan: every pixel, valid or not.
        for (uint64_t x = 0; x < w; ++x) {
          for (uint64_t y = 0; y < h; ++y) {
            const double v = f.bands[band][x * h + y];
            if (std::isnan(v)) continue;
            if (!InBox(f.img, static_cast<int64_t>(x),
                       static_cast<int64_t>(y), q)) {
              continue;
            }
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

Result<uint64_t> SciSparkEngine::Q2Regrid(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  if (q.grid.size() != 3) {
    return Status::InvalidArgument("Q2 grid must be 3-dimensional");
  }
  const uint64_t h = height_, w = width_;
  const auto grid = q.grid;
  // Per-frame regrid, then a shuffle merges partial blocks across the
  // time axis.
  auto partials = frames_.FlatMap([band, h, w, q, grid](const Frame& f) {
    internal::FirstSeenGroups<uint64_t, std::pair<double, uint64_t>> acc;
    for (uint64_t x = 0; x < w; ++x) {
      for (uint64_t y = 0; y < h; ++y) {
        const double v = f.bands[band][x * h + y];
        if (std::isnan(v)) continue;
        if (!InBox(f.img, static_cast<int64_t>(x), static_cast<int64_t>(y),
                   q)) {
          continue;
        }
        const uint64_t gi = static_cast<uint64_t>(f.img) / grid[0];
        const uint64_t gxx = x / grid[1];
        const uint64_t gyy = y / grid[2];
        const uint64_t key = (gi * (w / grid[1] + 1) + gxx) *
                                 (h / grid[2] + 1) +
                             gyy;
        auto& slot = acc[key];
        slot.first += v;
        slot.second += 1;
      }
    }
    return acc.Take();
  });
  auto merged =
      ToPair<uint64_t, std::pair<double, uint64_t>>(std::move(partials))
          .ReduceByKey([](const std::pair<double, uint64_t>& a,
                          const std::pair<double, uint64_t>& b) {
            return std::pair<double, uint64_t>(a.first + b.first,
                                               a.second + b.second);
          });
  return merged.Count();
}

Result<double> SciSparkEngine::Q3FilteredAverage(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  const uint64_t h = height_, w = width_;
  const double threshold = q.threshold;
  struct SumCount {
    double sum = 0;
    uint64_t n = 0;
  };
  auto sc = frames_.Aggregate<SumCount>(
      SumCount{},
      [band, h, w, q, threshold](SumCount acc, const Frame& f) {
        for (uint64_t x = 0; x < w; ++x) {
          for (uint64_t y = 0; y < h; ++y) {
            const double v = f.bands[band][x * h + y];
            if (std::isnan(v) || v <= threshold) continue;
            if (!InBox(f.img, static_cast<int64_t>(x),
                       static_cast<int64_t>(y), q)) {
              continue;
            }
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

Result<uint64_t> SciSparkEngine::Q4Polygons(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band1, BandIndex(q.attr));
  SPANGLE_ASSIGN_OR_RETURN(size_t band2, BandIndex(q.attr2));
  const uint64_t h = height_, w = width_;
  const double t1 = q.threshold, t2 = q.threshold2;
  return frames_.Aggregate<uint64_t>(
      0,
      [band1, band2, h, w, q, t1, t2](uint64_t acc, const Frame& f) {
        for (uint64_t x = 0; x < w; ++x) {
          for (uint64_t y = 0; y < h; ++y) {
            const double v1 = f.bands[band1][x * h + y];
            const double v2 = f.bands[band2][x * h + y];
            if (std::isnan(v1) || v1 <= t1) continue;
            if (std::isnan(v2) || v2 <= t2) continue;
            if (!InBox(f.img, static_cast<int64_t>(x),
                       static_cast<int64_t>(y), q)) {
              continue;
            }
            ++acc;
          }
        }
        return acc;
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

Result<uint64_t> SciSparkEngine::Q5Density(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t band, BandIndex(q.attr));
  if (q.grid.size() != 3) {
    return Status::InvalidArgument("Q5 grid must be 3-dimensional");
  }
  const uint64_t h = height_, w = width_;
  const auto grid = q.grid;
  auto partials = frames_.FlatMap([band, h, w, q, grid](const Frame& f) {
    internal::FirstSeenGroups<uint64_t, uint64_t> acc;
    for (uint64_t x = 0; x < w; ++x) {
      for (uint64_t y = 0; y < h; ++y) {
        const double v = f.bands[band][x * h + y];
        if (std::isnan(v)) continue;
        if (!InBox(f.img, static_cast<int64_t>(x), static_cast<int64_t>(y),
                   q)) {
          continue;
        }
        const uint64_t gi = static_cast<uint64_t>(f.img) / grid[0];
        const uint64_t gxx = x / grid[1];
        const uint64_t gyy = y / grid[2];
        acc[(gi * (w / grid[1] + 1) + gxx) * (h / grid[2] + 1) + gyy] += 1;
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
