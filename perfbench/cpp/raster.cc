// raster: the Table I queries (Fig. 7) through SpangleRasterEngine on an
// SDSS-like sky array, LOCAL. Time goes mostly to bitmask, array (chunk
// modes, MaskRdd) and ops; the range regrid adds a shuffle (engine.shuffle,
// codec encode-to-hash). It never touches net.

#include <cmath>
#include <map>
#include <memory>

#include "baselines/diskdb.h"
#include "harness.h"
#include "workload/queries.h"
#include "workload/raster_gen.h"

namespace perfbench {
namespace {

using namespace spangle;  // NOLINT(google-build-using-namespace)

struct Answers {
  double q1 = 0, q3 = 0;
  uint64_t q2 = 0, q4 = 0, q5 = 0;
};

bool Near(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

class RasterWorkload : public Workload {
 public:
  std::vector<std::string> OpKinds() const override {
    return {"scan_query", "regrid_query"};
  }

  void Generate(uint64_t seed, double scale) override {
    SkyOptions o;
    o.images = std::max<uint64_t>(2, std::llround(48 * scale));
    o.width = o.height = scale >= 0.25 ? 512 : 128;
    o.bands = 5;
    o.chunk = 128;  // the paper's 128x128x1 chunks
    o.source_density = 0.004;
    o.seed = seed;
    data_ = GenerateSky(o);
    // Fig. 7a (no range) and Fig. 7b (range) parameters, as in
    // bench_fig7_queries.
    for (int v = 0; v < 2; ++v) {
      QueryParams& q = params_[v];
      const auto w = static_cast<int64_t>(o.width);
      const auto h = static_cast<int64_t>(o.height);
      q.lo = {0, w / 8, h / 8};
      q.hi = {static_cast<int64_t>(o.images) / 2, w * 5 / 8, h * 5 / 8};
      q.use_range = v == 1;
      q.attr = "u";
      q.attr2 = "g";
      q.threshold = 0.5;
      q.threshold2 = 0.8;
      q.grid = {1, 8, 8};
      q.min_count = 2;
    }
  }

  void Setup(Tracer* tracer) override {
    engine_.reset();
    array_ = SpangleArray();
    ctx_.reset();
    {
      Tracer::Scope s(tracer, "Context::Context", "engine");
      ctx_ = std::make_unique<Context>(4);
    }
    {
      Tracer::Scope s(tracer, "RasterData::ToSpangle", "array");
      array_ = *data_.ToSpangle(ctx_.get());
    }
    {
      // Caches the array and builds the Q2/Q5 overlap (ghost cells).
      Tracer::Scope s(tracer, "SpangleRasterEngine::SpangleRasterEngine",
                      "ops");
      engine_ = std::make_unique<SpangleRasterEngine>(array_,
                                                      /*overlap_radius=*/7);
    }
    Tracer::Scope s(tracer, "ArrayRdd::NumChunks", "array");
    for (const std::string& name : array_.attribute_names()) {
      (void)array_.RawAttribute(name)->NumChunks();  // fills the cache
    }
    (void)array_.CountValid();
  }

  void ComputeReferences(const std::string& tmp_dir) override {
    SciDbEngine scidb = *SciDbEngine::Load(data_, tmp_dir);
    for (int v = 0; v < 2; ++v) {
      const QueryParams& q = params_[v];
      ref_[v].q1 = *scidb.Q1Average(q);
      ref_[v].q2 = *scidb.Q2Regrid(q);
      ref_[v].q3 = *scidb.Q3FilteredAverage(q);
      ref_[v].q4 = *scidb.Q4Polygons(q);
      ref_[v].q5 = *scidb.Q5Density(q);
    }
  }

  Context* context() override { return ctx_.get(); }

  bool RunOp(int kind, Op* op) override {
    Answers got[2];
    bool status_ok = true;
    auto take = [&status_ok](auto result, auto* out) {
      if (result.ok()) {
        *out = *result;
      } else {
        status_ok = false;
      }
    };
    op->Start();
    for (int v = 0; v < 2; ++v) {
      const QueryParams& q = params_[v];
      if (kind == 0) {
        {
          auto s = op->Span("SpangleRasterEngine::Q1Average", "ops");
          take(engine_->Q1Average(q), &got[v].q1);
        }
        {
          auto s = op->Span("SpangleRasterEngine::Q3FilteredAverage", "ops");
          take(engine_->Q3FilteredAverage(q), &got[v].q3);
        }
        auto s = op->Span("SpangleRasterEngine::Q4Polygons", "ops");
        take(engine_->Q4Polygons(q), &got[v].q4);
      } else {
        {
          auto s = op->Span("SpangleRasterEngine::Q2Regrid", "ops");
          take(engine_->Q2Regrid(q), &got[v].q2);
        }
        auto s = op->Span("SpangleRasterEngine::Q5Density", "ops");
        take(engine_->Q5Density(q), &got[v].q5);
      }
    }
    op->Stop();
    bool ok = status_ok;
    for (int v = 0; v < 2; ++v) {
      if (kind == 0) {
        ok = ok && Near(Op::Answer(got[v].q1), ref_[v].q1) &&
             Near(got[v].q3, ref_[v].q3) && got[v].q4 == ref_[v].q4;
      } else {
        ok = ok && Op::Answer(static_cast<double>(got[v].q2)) ==
                       static_cast<double>(ref_[v].q2) &&
             got[v].q5 == ref_[v].q5;
      }
    }
    return ok;
  }

  Values Traffic() override {
    const ArrayMetadata& meta = data_.meta;
    const double cells = static_cast<double>(meta.dim(0).size) *
                         static_cast<double>(meta.dim(1).size) *
                         static_cast<double>(meta.dim(2).size) *
                         static_cast<double>(data_.attr_names.size());
    std::map<ChunkMode, double> modes;
    for (const std::string& name : array_.attribute_names()) {
      for (const auto& [id, chunk] :
           array_.RawAttribute(name)->chunks().AsRdd().Collect()) {
        modes[chunk.mode()] += 1;
      }
    }
    const EngineMetrics& m = ctx_->metrics();
    return {
        {"valid_cells", static_cast<double>(data_.TotalValid())},
        {"valid_cell_density", static_cast<double>(data_.TotalValid()) / cells},
        {"chunks_dense", modes[ChunkMode::kDense]},
        {"chunks_sparse", modes[ChunkMode::kSparse]},
        {"chunks_super_sparse", modes[ChunkMode::kSuperSparse]},
        {"chunk_density_p50", m.chunk_density.Percentile(0.5)},
        {"chunk_density_observations",
         static_cast<double>(m.chunk_density.count())},
        {"mask_density_p50", m.mask_density.Percentile(0.5)},
        {"mask_density_observations",
         static_cast<double>(m.mask_density.count())},
    };
  }

  Values LayerValues() override {
    // The raster array's own chunk masks: band u, and band g for the AND.
    std::map<ChunkId, Bitmask> u_masks, g_masks;
    for (const auto& [id, chunk] :
         array_.RawAttribute("u")->chunks().AsRdd().Collect()) {
      u_masks[id] = chunk.FlatMask();
    }
    for (const auto& [id, chunk] :
         array_.RawAttribute("g")->chunks().AsRdd().Collect()) {
      g_masks[id] = chunk.FlatMask();
    }
    std::vector<const Bitmask*> masks;
    std::vector<std::pair<Bitmask, const Bitmask*>> pairs;
    double mask_bytes = 0, pair_bytes = 0;
    for (const auto& [id, mask] : u_masks) {
      masks.push_back(&mask);
      mask_bytes += static_cast<double>(mask.num_words() * 8);
      auto it = g_masks.find(id);
      if (it != g_masks.end() && it->second.num_bits() == mask.num_bits()) {
        pairs.emplace_back(mask, &it->second);
        pair_bytes += static_cast<double>(mask.num_words() * 8);
      }
    }
    uint64_t sink = 0;
    const double count_s = TimeRepeated([&] {
      for (const Bitmask* m : masks) sink += m->CountAll();
    });
    const double and_s = TimeRepeated([&] {
      for (auto& [work, other] : pairs) work.AndWith(*other);
    });
    KeepAlive(sink);

    size_t resident = 0;
    for (const std::string& name : array_.attribute_names()) {
      resident += array_.RawAttribute(name)->MemoryBytes();
    }
    return {
        {"bitmask.count_gb_s", count_s > 0 ? mask_bytes / count_s / 1e9 : 0},
        {"bitmask.and_gb_s", and_s > 0 ? pair_bytes / and_s / 1e9 : 0},
        {"array.resident_mb", static_cast<double>(resident) / (1 << 20)},
    };
  }

 private:
  RasterData data_;
  QueryParams params_[2];  // [0] no range (Fig. 7a), [1] range (Fig. 7b)
  Answers ref_[2];
  std::unique_ptr<Context> ctx_;
  SpangleArray array_;
  std::unique_ptr<SpangleRasterEngine> engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeRasterWorkload() {
  return std::make_unique<RasterWorkload>();
}

}  // namespace perfbench
