// ml: the Fig. 10 matrix operations on mouse-, hardesty- and mawi-like
// matrices, Fig. 11 PageRank on an R-MAT twitter-like graph, and Fig. 12
// SGD with opt1+opt2, LOCAL. Time goes mostly to matrix tile kernels, ml,
// and engine.shuffle / block_manager caching. Ultra-sparse MtM (mawi,
// hardesty) sits next to denser MtM (mouse), so a kernel change that helps
// one and costs the other shows up.

#include <cmath>
#include <map>
#include <memory>

#include "baselines/matrix_engines.h"
#include "common/random.h"
#include "harness.h"
#include "ml/logreg.h"
#include "ml/pagerank.h"
#include "workload/graph_gen.h"
#include "workload/lr_data_gen.h"
#include "workload/matrix_gen.h"

namespace perfbench {
namespace {

using namespace spangle;  // NOLINT(google-build-using-namespace)

constexpr int kMouse = 0, kHardesty = 1, kMawi = 2;
constexpr int kPageRankIterations = 20;
constexpr int kSgdIterations = 30;
// Held-out accuracy after 30 iterations is 84-86% at full scale and
// 75-92% at the self-test's scale across seeds; a broken trainer lands
// near 50%.
constexpr double kSgdAccuracyFloor = 70.0;

std::vector<double> RandomVector(uint64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble(-1, 1);
  return v;
}

/// A dense product computed naively, with the per-output sum of absolute
/// terms that bounds its rounding error.
struct Product {
  std::vector<double> value;
  std::vector<double> magnitude;
};

bool Matches(const std::vector<double>& got, const Product& want) {
  if (got.size() != want.value.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i] - want.value[i]) > 1e-9 * want.magnitude[i] + 1e-300) {
      return false;
    }
  }
  return true;
}

struct MatrixInput {
  SyntheticMatrix m;
  uint64_t block = 0;
  std::vector<double> x_col, x_row;  // M x v and vT x M operands
  Product mxv, vtm;
  uint64_t mtm_nnz = 0;
};

class MlWorkload : public Workload {
 public:
  std::vector<std::string> OpKinds() const override {
    return {"matmul_sparse", "matmul_dense", "matvec", "pagerank", "sgd"};
  }

  void Generate(uint64_t seed, double scale) override {
    // Table IIa stand-ins at bench_fig10_ml_core's sizes. The matrices and
    // the graph stand in for fixed datasets, so their structure comes from
    // fixed seeds; the run seed draws the matrix values, the operand
    // vectors and the SGD data. (On a power-law matrix the MtM cost
    // follows its hottest rows, which a structure seed would move by more
    // than the benchmark's bounds.)
    auto dim = [scale](uint64_t d) {
      return std::max<uint64_t>(64, static_cast<uint64_t>(d * scale));
    };
    inputs_.resize(3);
    inputs_[kMouse].m =
        GenerateUniformMatrix("mouse", dim(2048), dim(2048), 0.014, 24);
    inputs_[kHardesty].m = GeneratePowerLawMatrix(
        "hardesty", dim(40000), dim(40000), dim(1024), 1.2, 25);
    inputs_[kMawi].m = GeneratePowerLawMatrix("mawi", dim(645000), dim(645000),
                                              dim(3900), 1.3, 26);
    for (size_t i = 0; i < inputs_.size(); ++i) {
      MatrixInput& in = inputs_[i];
      Rng values(seed * 8 + i);
      for (MatrixEntry& e : in.m.entries) e.value = 1 + values.NextDouble();
      in.block = std::min<uint64_t>(512, std::max<uint64_t>(32, in.m.rows / 8));
      in.x_col = RandomVector(in.m.cols, seed * 8 + 4 + i);
      in.x_row = RandomVector(in.m.rows, seed * 8 + 5 + i);
    }

    RmatOptions g;
    g.scale = scale >= 0.25 ? 15 : 11;
    g.edges_per_vertex = 24;  // twitter-like: the densest Fig. 11 graph
    g.seed = 17;
    edges_ = GenerateRmat(g);
    vertices_ = uint64_t{1} << g.scale;
    pagerank_.iterations = kPageRankIterations;
    pagerank_.block = std::min<uint64_t>(2048, vertices_ / 2);

    LrDataOptions lr;
    lr.rows = dim(16384);
    lr.features = dim(256);
    lr.nnz_per_row = std::min<uint64_t>(24, lr.features / 4);
    lr.label_noise = 0.03;
    lr.seed = seed * 8 + 7;
    lr_ = GenerateLrData(lr);
    sgd_.step_size = 0.6;
    sgd_.tolerance = 0;  // always the full kSgdIterations
    sgd_.max_iterations = kSgdIterations;
    sgd_.batch_fraction = 0.3;
    sgd_.block = 128;
    sgd_.num_partitions = 8;
    sgd_.seed = seed;
    sgd_.opt1 = sgd_.opt2 = true;
  }

  void Setup(Tracer* tracer) override {
    matrices_.clear();
    ctx_.reset();
    {
      Tracer::Scope s(tracer, "Context::Context", "engine");
      ctx_ = std::make_unique<Context>(4);
    }
    for (const MatrixInput& in : inputs_) {
      Tracer::Scope s(tracer, "BlockMatrix::FromEntries", "matrix");
      BlockMatrix m = *BlockMatrix::FromEntries(
          ctx_.get(), in.m.rows, in.m.cols, in.block, in.m.entries);
      m.Cache();
      (void)m.NumNonZero();  // fills the cache
      matrices_.push_back(std::move(m));
    }
  }

  void ComputeReferences(const std::string&) override {
    for (MatrixInput& in : inputs_) {
      in.mxv = {std::vector<double>(in.m.rows), std::vector<double>(in.m.rows)};
      in.vtm = {std::vector<double>(in.m.cols), std::vector<double>(in.m.cols)};
      for (const MatrixEntry& e : in.m.entries) {
        in.mxv.value[e.row] += e.value * in.x_col[e.col];
        in.mxv.magnitude[e.row] += std::abs(e.value * in.x_col[e.col]);
        in.vtm.value[e.col] += in.x_row[e.row] * e.value;
        in.vtm.magnitude[e.col] += std::abs(in.x_row[e.row] * e.value);
      }
      in.mtm_nnz = *(*CooMatrixEngine::Load(ctx_.get(), in.m))->MtM();
    }

    // PageRank by plain power iteration over the edge list:
    // p <- alpha * A'(w o p) + (1 - alpha) / n, w = 1 / outdegree.
    std::vector<double> outdeg(vertices_, 0);
    for (const auto& [src, dst] : edges_) outdeg[src] += 1;
    const double n = static_cast<double>(vertices_);
    std::vector<double> p(vertices_, 1.0 / n), next(vertices_);
    for (int it = 0; it < kPageRankIterations; ++it) {
      std::fill(next.begin(), next.end(), 0.0);
      for (const auto& [src, dst] : edges_) next[dst] += p[src] / outdeg[src];
      for (uint64_t v = 0; v < vertices_; ++v) {
        p[v] = pagerank_.damping * next[v] + (1.0 - pagerank_.damping) / n;
      }
    }
    ranks_ = std::move(p);
  }

  Context* context() override { return ctx_.get(); }

  bool RunOp(int kind, Op* op) override {
    switch (kind) {
      case 0:
        return MtM(op, {kHardesty, kMawi});
      case 1:
        return MtM(op, {kMouse});
      case 2:
        return MatVec(op);
      case 3:
        return RunPageRank(op);
      default:
        return RunSgd(op);
    }
  }

  Values Traffic() override {
    Values out;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      const std::string name = inputs_[i].m.name;
      std::map<ChunkMode, double> modes;
      for (const auto& [id, tile] :
           matrices_[i].array().chunks().AsRdd().Collect()) {
        modes[tile.mode()] += 1;
      }
      out.push_back({name + ".density", inputs_[i].m.density});
      out.push_back({name + ".nnz",
                     static_cast<double>(inputs_[i].m.entries.size())});
      out.push_back({name + ".tiles_dense", modes[ChunkMode::kDense]});
      out.push_back({name + ".tiles_sparse", modes[ChunkMode::kSparse]});
      out.push_back(
          {name + ".tiles_super_sparse", modes[ChunkMode::kSuperSparse]});
    }
    out.push_back({"graph.vertices", static_cast<double>(vertices_)});
    out.push_back({"graph.edges", static_cast<double>(edges_.size())});
    out.push_back({"sgd.train_rows", static_cast<double>(lr_.train.rows)});
    return out;
  }

  Values LayerValues() override {
    size_t resident = 0;
    for (const BlockMatrix& m : matrices_) resident += m.MemoryBytes();
    return {
        {"matrix.tile_multiply_us_sparse",
         TileMultiplyUs({kHardesty, kMawi})},
        {"matrix.tile_multiply_us_dense", TileMultiplyUs({kMouse})},
        {"ml.pagerank_iter_ms", Median(pagerank_iter_s_) * 1e3},
        {"ml.sgd_iter_ms", Median(sgd_iter_s_) * 1e3},
        {"ml.sgd_iterations", static_cast<double>(sgd_iterations_)},
        {"array.resident_mb", static_cast<double>(resident) / (1 << 20)},
    };
  }

 private:
  bool MtM(Op* op, const std::vector<int>& which) {
    std::vector<Result<uint64_t>> nnz;
    op->Start();
    for (int i : which) {
      auto s = op->Span("BlockMatrix::TransposeSelfMultiply", "matrix");
      Result<BlockMatrix> out = matrices_[i].TransposeSelfMultiply();
      if (!out.ok()) {
        nnz.emplace_back(out.status());
        continue;
      }
      auto c = op->Span("BlockMatrix::NumNonZero", "matrix");
      nnz.emplace_back(out->NumNonZero());
    }
    op->Stop();
    bool ok = true;
    for (size_t j = 0; j < which.size(); ++j) {
      ok = ok && nnz[j].ok() &&
           Op::Answer(static_cast<double>(*nnz[j])) ==
               static_cast<double>(inputs_[which[j]].mtm_nnz);
    }
    return ok;
  }

  bool MatVec(Op* op) {
    std::vector<std::vector<double>> mxv(3), vtm(3);
    bool status_ok = true;
    op->Start();
    for (int i = 0; i < 3; ++i) {
      const uint64_t block = inputs_[i].block;
      {
        auto s = op->Span("BlockMatrix::MultiplyVector", "matrix");
        auto v = BlockVector::FromDense(ctx_.get(), inputs_[i].x_col, block);
        auto out = matrices_[i].MultiplyVector(v);
        status_ok = status_ok && out.ok();
        if (out.ok()) mxv[i] = out->ToDense();
      }
      auto s = op->Span("BlockMatrix::LeftMultiplyVector", "matrix");
      auto v = BlockVector::FromDense(ctx_.get(), inputs_[i].x_row, block)
                   .TransposeMetadata();
      auto out = matrices_[i].LeftMultiplyVector(v);
      status_ok = status_ok && out.ok();
      if (out.ok()) vtm[i] = out->ToDense();
    }
    op->Stop();
    bool ok = status_ok;
    for (int i = 0; i < 3; ++i) {
      if (!mxv[i].empty()) mxv[i][0] = Op::Answer(mxv[i][0]);
      ok = ok && Matches(mxv[i], inputs_[i].mxv) &&
           Matches(vtm[i], inputs_[i].vtm);
    }
    return ok;
  }

  bool RunPageRank(Op* op) {
    op->Start();
    Result<PageRankResult> r = [&] {
      auto s = op->Span("PageRank", "ml");
      return PageRank(ctx_.get(), vertices_, edges_, pagerank_);
    }();
    op->Stop();
    if (!r.ok() || r->ranks.size() != ranks_.size()) return false;
    // Every rank (and so the rank sum and the top-k) matches the plain
    // power iteration up to summation order.
    double sum = 0, want_sum = 0;
    bool ok = true;
    for (size_t v = 0; v < ranks_.size(); ++v) {
      const double got = v == 0 ? Op::Answer(r->ranks[v]) : r->ranks[v];
      ok = ok && std::abs(got - ranks_[v]) <= 1e-9 * ranks_[v];
      sum += got;
      want_sum += ranks_[v];
    }
    if (op->traced()) {
      pagerank_iter_s_.insert(pagerank_iter_s_.end(),
                              r->iteration_seconds.begin(),
                              r->iteration_seconds.end());
    }
    return ok && std::abs(sum - want_sum) <= 1e-9 * want_sum;
  }

  bool RunSgd(Op* op) {
    op->Start();
    Result<TrainResult> r = [&] {
      auto s = op->Span("TrainLogReg", "ml");
      return TrainLogReg(ctx_.get(), lr_.train, sgd_);
    }();
    op->Stop();
    if (!r.ok() || r->weights.size() != lr_.test.features) return false;
    if (op->traced()) {
      sgd_iter_s_.insert(sgd_iter_s_.end(), r->iteration_seconds.begin(),
                         r->iteration_seconds.end());
      sgd_iterations_ = r->iterations;
    }
    // Accuracy on the held-out split, scored naively: label 1 iff x.w >= 0.
    std::vector<double> score(lr_.test.rows, 0.0);
    for (const MatrixEntry& e : lr_.test.entries) {
      score[e.row] += e.value * r->weights[e.col];
    }
    double correct = 0;
    for (uint64_t i = 0; i < lr_.test.rows; ++i) {
      correct += (score[i] >= 0 ? 1.0 : 0.0) == lr_.test.labels[i] ? 1 : 0;
    }
    const double accuracy = Op::Answer(100.0 * correct / lr_.test.rows);
    if (r->iterations == kSgdIterations && accuracy >= kSgdAccuracyFloor) {
      return true;
    }
    std::fprintf(stderr, "[perfbench] sgd: %d iterations, accuracy %.2f%%\n",
                 r->iterations, accuracy);
    return false;
  }

  /// Mean microseconds of one MultiplyTiles call over the tile pairs the
  /// MtM of `which` multiplies: transpose(M[rb, i]) x M[rb, k].
  double TileMultiplyUs(const std::vector<int>& which) {
    struct Pair {
      Chunk a, b;
      uint32_t bs;
    };
    constexpr size_t kMaxPairs = 4096;
    std::vector<Pair> pairs;
    for (int i : which) {
      const BlockMatrix& m = matrices_[i];
      const auto bs = static_cast<uint32_t>(m.block());
      std::map<uint64_t, std::vector<Chunk>> bands;  // row block -> tiles
      for (auto& [id, tile] : m.array().chunks().AsRdd().Collect()) {
        bands[m.array().mapper().ChunkGridCoords(id)[0]].push_back(tile);
      }
      for (const auto& [rb, tiles] : bands) {
        for (const Chunk& left : tiles) {
          std::vector<std::pair<uint32_t, double>> cells;
          for (const auto& [off, v] : left.ToCells()) {
            cells.emplace_back((off % bs) * bs + off / bs, v);
          }
          const uint64_t n = cells.size();
          Chunk transposed = Chunk::FromCells(
              bs * bs, std::move(cells), Chunk::ChooseMode(bs * bs, n));
          for (const Chunk& right : tiles) {
            if (pairs.size() < kMaxPairs) pairs.push_back({transposed, right, bs});
          }
        }
      }
    }
    if (pairs.empty()) return 0;
    uint64_t sink = 0;
    const double s = TimeRepeated([&] {
      for (const Pair& p : pairs) sink += MultiplyTiles(p.a, p.b, p.bs).size();
    });
    KeepAlive(sink);
    return s / static_cast<double>(pairs.size()) * 1e6;
  }

  std::vector<MatrixInput> inputs_;
  std::vector<std::pair<uint64_t, uint64_t>> edges_;
  uint64_t vertices_ = 0;
  PageRankOptions pagerank_;
  std::vector<double> ranks_;
  LrSplit lr_;
  LogRegOptions sgd_;

  std::unique_ptr<Context> ctx_;
  std::vector<BlockMatrix> matrices_;

  // Traced-run measurements.
  std::vector<double> pagerank_iter_s_, sgd_iter_s_;
  int sgd_iterations_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMlWorkload() {
  return std::make_unique<MlWorkload>();
}

}  // namespace perfbench
