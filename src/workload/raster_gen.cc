#include "workload/raster_gen.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "engine/first_seen_groups.h"

namespace spangle {

Result<SpangleArray> RasterData::ToSpangle(Context* ctx, ModePolicy policy,
                                           bool use_mask_rdd) const {
  std::vector<std::pair<std::string, ArrayRdd>> attrs;
  for (size_t a = 0; a < attr_names.size(); ++a) {
    SPANGLE_ASSIGN_OR_RETURN(ArrayRdd rdd,
                             ArrayRdd::FromCells(ctx, meta, cells[a], policy));
    attrs.emplace_back(attr_names[a], std::move(rdd));
  }
  return SpangleArray::FromAttributes(std::move(attrs), use_mask_rdd);
}

RasterData GenerateSky(const SkyOptions& options) {
  RasterData data;
  data.meta = *ArrayMetadata::Make(
      {{"img", 0, options.images, 1, 0},
       {"x", 0, options.width, options.chunk, 0},
       {"y", 0, options.height, options.chunk, 0}});
  static const char* const kBandNames[] = {"u", "g", "r", "i", "z"};
  for (uint64_t b = 0; b < options.bands; ++b) {
    data.attr_names.push_back(b < 5 ? kBandNames[b]
                                    : "band" + std::to_string(b));
  }
  data.cells.resize(options.bands);
  Rng rng(options.seed);
  const uint64_t sources_per_image = static_cast<uint64_t>(
      options.source_density * static_cast<double>(options.width) *
      static_cast<double>(options.height));
  for (uint64_t img = 0; img < options.images; ++img) {
    // Per-band groups, so a pixel lit by two overlapping sources sums;
    // pixels are emitted in the order a source first lit them.
    std::vector<internal::FirstSeenGroups<uint64_t, double>> pixels(
        options.bands);
    for (uint64_t s = 0; s < sources_per_image; ++s) {
      const int64_t cx =
          static_cast<int64_t>(rng.NextBounded(options.width));
      const int64_t cy =
          static_cast<int64_t>(rng.NextBounded(options.height));
      const double flux = std::exp(rng.NextGaussian());  // log-normal
      const int radius = 1 + static_cast<int>(rng.NextBounded(2));
      for (int64_t dx = -radius; dx <= radius; ++dx) {
        for (int64_t dy = -radius; dy <= radius; ++dy) {
          const int64_t x = cx + dx, y = cy + dy;
          if (x < 0 || y < 0 ||
              x >= static_cast<int64_t>(options.width) ||
              y >= static_cast<int64_t>(options.height)) {
            continue;
          }
          const double falloff =
              std::exp(-0.5 * static_cast<double>(dx * dx + dy * dy));
          // Each band sees the source with a band-dependent response.
          for (uint64_t b = 0; b < options.bands; ++b) {
            const double response =
                0.4 + 0.2 * static_cast<double>((b * 7 + s) % 4);
            pixels[b][static_cast<uint64_t>(x) * options.height +
                      static_cast<uint64_t>(y)] +=
                flux * falloff * response;
          }
        }
      }
    }
    for (uint64_t b = 0; b < options.bands; ++b) {
      for (const auto& [key, v] : pixels[b].Take()) {
        const int64_t x = static_cast<int64_t>(key / options.height);
        const int64_t y = static_cast<int64_t>(key % options.height);
        data.cells[b].push_back(
            {{static_cast<int64_t>(img), x, y}, v});
      }
    }
  }
  return data;
}

RasterData GenerateChl(const ChlOptions& options) {
  RasterData data;
  data.meta = *ArrayMetadata::Make(
      {{"lon", 0, options.lon, options.chunk_lon, 0},
       {"lat", 0, options.lat, options.chunk_lat, 0},
       {"time", 0, options.time, 1, 0}});
  data.attr_names = {"chlorophyll"};
  data.cells.resize(1);
  Rng rng(options.seed);
  // Land is generated as blobby patches: a coarse 16x16 grid of
  // land/ocean flags smoothed by majority, giving contiguous land masses
  // rather than salt-and-pepper noise.
  const uint64_t gx = 16, gy = 16;
  std::vector<bool> land_grid(gx * gy);
  for (auto&& cell : land_grid) cell = rng.NextBool(options.land_fraction);
  auto is_land = [&](uint64_t lon, uint64_t lat) {
    const uint64_t cx = lon * gx / options.lon;
    const uint64_t cy = lat * gy / options.lat;
    return land_grid[cx * gy + cy];
  };
  for (uint64_t t = 0; t < options.time; ++t) {
    for (uint64_t lon = 0; lon < options.lon; ++lon) {
      for (uint64_t lat = 0; lat < options.lat; ++lat) {
        if (is_land(lon, lat)) continue;
        // Chlorophyll is higher near the poles and coasts; keep a simple
        // latitude gradient plus noise.
        const double latitude_factor =
            0.2 + std::abs(static_cast<double>(lat) /
                               static_cast<double>(options.lat) -
                           0.5);
        const double v =
            latitude_factor * (1.0 + 0.3 * rng.NextGaussian());
        data.cells[0].push_back({{static_cast<int64_t>(lon),
                                  static_cast<int64_t>(lat),
                                  static_cast<int64_t>(t)},
                                 std::max(0.01, v)});
      }
    }
  }
  return data;
}

}  // namespace spangle
