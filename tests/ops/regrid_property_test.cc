// Property sweep for the block regrids: RegridAggregateLocal (over
// overlap), RegridAggregate (shuffled) and AggregateAlongDims checked
// against a naive single-threaded reference on random 1-D, 2-D and 3-D
// arrays — non-zero dimension starts, ragged last chunks, dense, sparse
// and super-sparse chunks, aligned, straddling and larger-than-chunk
// grids — for every built-in aggregate and a user-defined one. A second
// test pins every operator's output cells bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "ops/overlap.h"

namespace spangle {
namespace {

/// User-defined aggregate: max − min of a block (v0 = min, v1 = max).
class SpreadAgg : public AggregateFunction {
 public:
  AggState Initialize() const override {
    return {std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
  }
  void Accumulate(AggState* s, double v) const override {
    s->v0 = std::min(s->v0, v);
    s->v1 = std::max(s->v1, v);
  }
  void Merge(AggState* a, const AggState& b) const override {
    a->v0 = std::min(a->v0, b.v0);
    a->v1 = std::max(a->v1, b.v1);
  }
  double Evaluate(const AggState& s) const override { return s.v1 - s.v0; }
  std::string name() const override { return "spread"; }
  std::shared_ptr<const AggregateFunction> Clone() const override {
    return std::make_shared<SpreadAgg>();
  }
};

std::vector<std::shared_ptr<const AggregateFunction>> Functions() {
  return {std::make_shared<SumAgg>(), std::make_shared<CountAgg>(),
          std::make_shared<AvgAgg>(), std::make_shared<MinAgg>(),
          std::make_shared<MaxAgg>(), std::make_shared<SpreadAgg>()};
}

struct Case {
  const char* name;
  std::vector<Dimension> dims;
  double density;
  uint64_t seed;
  std::vector<std::vector<uint64_t>> grids;
  std::vector<std::vector<std::string>> collapses;
};

// Every case has a ragged last chunk along at least one dimension.
std::vector<Case> Cases() {
  return {
      {"1d_dense", {{"x", -5, 37, 8, 0}}, 0.9, 1, {{3}, {8}, {20}}, {}},
      {"1d_supersparse",
       {{"x", 7, 301, 128, 0}},
       0.01,
       2,
       {{5}, {64}, {300}},
       {}},
      {"2d_sparse",
       {{"x", 3, 23, 6, 0}, {"y", -2, 17, 5, 0}},
       0.3,
       3,
       {{2, 3}, {3, 5}, {6, 5}, {7, 11}},
       {{"x"}, {"y"}}},
      {"2d_supersparse",
       {{"x", 0, 96, 48, 0}, {"y", 10, 80, 40, 0}},
       0.004,
       4,
       {{4, 4}, {5, 7}, {48, 40}, {100, 3}},
       {{"x"}, {"y"}}},
      {"3d_dense",
       {{"t", 0, 3, 1, 0}, {"x", -4, 19, 8, 0}, {"y", 10, 21, 8, 0}},
       0.8,
       5,
       {{1, 3, 4}, {1, 8, 8}, {1, 5, 3}, {2, 2, 2}},
       {{"t"}, {"x", "y"}, {"t", "y"}}},
      {"3d_sparse",
       {{"t", 5, 5, 2, 0}, {"x", 0, 13, 4, 0}, {"y", 0, 11, 4, 0}},
       0.35,
       6,
       {{2, 2, 3}, {1, 3, 4}, {3, 6, 2}},
       {{"t"}, {"x"}}},
  };
}

struct Input {
  ArrayMetadata meta;
  std::map<Coords, double> model;  // lexicographic = row-major order
  SpangleArray array;
};

Input MakeInput(Context* ctx, const Case& c) {
  Input in{*ArrayMetadata::Make(c.dims), {}, {}};
  Rng rng(c.seed);
  std::vector<CellValue> cells;
  const size_t nd = c.dims.size();
  Coords pos(nd);
  for (size_t d = 0; d < nd; ++d) pos[d] = c.dims[d].start;
  for (;;) {
    if (rng.NextBool(c.density)) {
      const double v = rng.NextDouble(-10, 10);
      in.model[pos] = v;
      cells.push_back({pos, v});
    }
    size_t d = nd;
    while (d-- > 0) {
      if (++pos[d] < c.dims[d].start +
                         static_cast<int64_t>(c.dims[d].size)) {
        break;
      }
      pos[d] = c.dims[d].start;
    }
    if (d == static_cast<size_t>(-1)) break;
  }
  in.array = *SpangleArray::FromAttributes(
      {{"v", *ArrayRdd::FromCells(ctx, in.meta, cells)}});
  return in;
}

/// Output cells keyed by position, for comparison and hashing.
std::map<Coords, double> ByPos(const ArrayRdd& out) {
  std::map<Coords, double> cells;
  for (const auto& cell : out.CollectCells()) cells[cell.pos] = cell.value;
  return cells;
}

/// Naive reference: every model cell, in row-major order, folded into the
/// state of output position `out_of(pos)`.
template <typename OutOf>
std::map<Coords, double> Reference(const Input& in,
                                   const AggregateFunction& fn,
                                   OutOf&& out_of) {
  std::map<Coords, AggState> states;
  for (const auto& [pos, v] : in.model) {
    auto [it, inserted] = states.try_emplace(out_of(pos), fn.Initialize());
    fn.Accumulate(&it->second, v);
  }
  std::map<Coords, double> out;
  for (const auto& [pos, s] : states) out[pos] = fn.Evaluate(s);
  return out;
}

/// Exact comparison when `tol` is 0; otherwise relative to max(1, |want|).
void ExpectCellsMatch(const std::map<Coords, double>& got,
                      const std::map<Coords, double>& want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [pos, w] : want) {
    auto it = got.find(pos);
    ASSERT_NE(it, got.end()) << "missing output cell";
    if (tol == 0) {
      ASSERT_EQ(it->second, w);
    } else {
      ASSERT_NEAR(it->second, w, tol * std::max(1.0, std::abs(w)));
    }
  }
}

/// The overlap regrid needs a ghost depth of grid - 1 along every
/// dimension whose chunks the blocks straddle; the radius clamps to the
/// chunk size.
bool LocalRegridApplies(const Case& c, const std::vector<uint64_t>& grid,
                        uint64_t radius) {
  for (size_t d = 0; d < grid.size(); ++d) {
    const uint64_t chunk = c.dims[d].chunk_size;
    if (chunk % grid[d] != 0 && std::min(radius, chunk) < grid[d] - 1) {
      return false;
    }
  }
  return true;
}

uint64_t RadiusFor(const std::vector<uint64_t>& grid) {
  return *std::max_element(grid.begin(), grid.end()) - 1;
}

/// Runs every operator over every case, grid and function; `visit` gets
/// the operator's name and its output cells (or fails the test).
template <typename Visit>
void RunSweep(Visit&& visit) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    Context ctx(3);
    const Input in = MakeInput(&ctx, c);
    const ArrayRdd base = *in.array.Attribute("v");
    const size_t nd = c.dims.size();
    for (const auto& grid : c.grids) {
      const uint64_t radius = RadiusFor(grid);
      const OverlapArrayRdd overlap = OverlapArrayRdd::Build(base, radius);
      auto out_of = [&](const Coords& pos) {
        Coords out(nd);
        for (size_t d = 0; d < nd; ++d) {
          out[d] = (pos[d] - c.dims[d].start) /
                   static_cast<int64_t>(grid[d]);
        }
        return out;
      };
      for (const auto& fn : Functions()) {
        SCOPED_TRACE(fn->name() + " grid[0]=" + std::to_string(grid[0]));
        visit("range", *fn, in, overlap, RegridAggregate(in.array, "v", *fn,
                                                          grid),
              out_of);
        auto local = overlap.RegridAggregateLocal(*fn, grid);
        if (LocalRegridApplies(c, grid, radius)) {
          visit("local", *fn, in, overlap, std::move(local), out_of);
        } else {
          EXPECT_EQ(local.status().code(), StatusCode::kFailedPrecondition);
        }
      }
    }
    for (const auto& collapse : c.collapses) {
      std::vector<size_t> kept;
      for (size_t d = 0; d < nd; ++d) {
        if (std::find(collapse.begin(), collapse.end(), c.dims[d].name) ==
            collapse.end()) {
          kept.push_back(d);
        }
      }
      auto out_of = [&](const Coords& pos) {
        Coords out;
        for (size_t d : kept) out.push_back(pos[d]);
        return out;
      };
      const OverlapArrayRdd none;
      for (const auto& fn : Functions()) {
        SCOPED_TRACE(fn->name() + " collapsing " + collapse[0]);
        visit("along_dims", *fn, in, none,
              AggregateAlongDims(in.array, "v", *fn, collapse), out_of);
      }
    }
  }
}

TEST(RegridPropertyTest, MatchesNaiveReference) {
  std::set<ChunkMode> expanded_modes;
  RunSweep([&](const std::string& op, const AggregateFunction& fn,
               const Input& in, const OverlapArrayRdd& overlap,
               Result<ArrayRdd> got, auto&& out_of) {
    SCOPED_TRACE(op);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // A block of the overlap regrid is folded by one chunk in row-major
    // order, exactly as the reference folds it: equal bits. The other
    // two merge partial states across partitions.
    const double tol = op == "local" ? 0.0 : 1e-9;
    ExpectCellsMatch(ByPos(*got), Reference(in, fn, out_of), tol);
    if (op == "local") {
      for (const auto& [cid, chunk] : overlap.expanded_chunks().Collect()) {
        expanded_modes.insert(chunk.mode());
      }
    }
  });
  EXPECT_EQ(expanded_modes.size(), 3u)
      << "the sweep must cover dense, sparse and super-sparse chunks";
}

/// FNV-1a over each output cell's coordinates and value bits.
void HashCells(const std::map<Coords, double>& cells, uint64_t* h) {
  auto mix = [h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      *h ^= (word >> (8 * i)) & 0xff;
      *h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [pos, v] : cells) {
    for (int64_t p : pos) mix(static_cast<uint64_t>(p));
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
}

// Pins every operator's output bit for bit. Each output block folds its
// cells in ascending offset order per chunk; the shuffled operators merge
// those per-chunk states chunk by chunk in partition order, then across
// partitions. A change to that order changes these hashes.
TEST(RegridPropertyTest, OutputsArePinnedBitForBit) {
  std::map<std::string, uint64_t> hashes;
  RunSweep([&](const std::string& op, const AggregateFunction&, const Input&,
               const OverlapArrayRdd&, Result<ArrayRdd> got, auto&&) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto [it, inserted] = hashes.try_emplace(op, 0xcbf29ce484222325ULL);
    HashCells(ByPos(*got), &it->second);
  });
  EXPECT_EQ(hashes["local"], 0x1d7ed22c59fa5680ULL);
  EXPECT_EQ(hashes["range"], 0xda116892382e13a6ULL);
  EXPECT_EQ(hashes["along_dims"], 0xb8306cbe73be2c9eULL);
}

}  // namespace
}  // namespace spangle
