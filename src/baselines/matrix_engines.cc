#include "baselines/matrix_engines.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "baselines/diskdb.h"
#include "engine/first_seen_groups.h"

namespace spangle {

// ---- Spangle ----

Result<std::unique_ptr<SpangleMatrixEngine>> SpangleMatrixEngine::Load(
    Context* ctx, const SyntheticMatrix& m, uint64_t block,
    const MemoryBudget& budget) {
  auto engine = std::make_unique<SpangleMatrixEngine>();
  engine->block_ = block;
  SPANGLE_ASSIGN_OR_RETURN(
      engine->matrix_,
      BlockMatrix::FromEntries(ctx, m.rows, m.cols, block, m.entries));
  SPANGLE_RETURN_NOT_OK(
      budget.Reserve(engine->matrix_.MemoryBytes(), "Spangle tiles"));
  engine->matrix_.Cache();
  return engine;
}

Result<std::vector<double>> SpangleMatrixEngine::MxV(
    const std::vector<double>& v) {
  auto bv = BlockVector::FromDense(matrix_.ctx(), v, block_);
  SPANGLE_ASSIGN_OR_RETURN(BlockVector out, matrix_.MultiplyVector(bv));
  return out.ToDense();
}

Result<std::vector<double>> SpangleMatrixEngine::VtM(
    const std::vector<double>& v) {
  // The vector arrives as a column; opt2's metadata transpose makes it a
  // row without touching data, then vT M runs without any matrix
  // transpose.
  auto bv = BlockVector::FromDense(matrix_.ctx(), v, block_)
                .TransposeMetadata();
  SPANGLE_ASSIGN_OR_RETURN(BlockVector out, matrix_.LeftMultiplyVector(bv));
  return out.ToDense();
}

Result<uint64_t> SpangleMatrixEngine::MtM() {
  SPANGLE_ASSIGN_OR_RETURN(BlockMatrix out, matrix_.TransposeSelfMultiply());
  return out.NumNonZero();
}

// ---- Spark COO ----

Result<std::unique_ptr<CooMatrixEngine>> CooMatrixEngine::Load(
    Context* ctx, const SyntheticMatrix& m, const MemoryBudget& budget) {
  auto engine = std::make_unique<CooMatrixEngine>();
  engine->ctx_ = ctx;
  engine->rows_ = m.rows;
  engine->cols_ = m.cols;
  engine->budget_ = budget;
  // Triple storage: 24 bytes per non-zero, no compression.
  SPANGLE_RETURN_NOT_OK(
      budget.Reserve(m.entries.size() * sizeof(MatrixEntry), "COO triples"));
  engine->entries_ = ctx->Parallelize(m.entries);
  engine->entries_.Cache();
  return engine;
}

Result<std::vector<double>> CooMatrixEngine::MxV(
    const std::vector<double>& v) {
  // Broadcast of the dense vector to every task.
  SPANGLE_RETURN_NOT_OK(budget_.Reserve(v.size() * sizeof(double) *
                                            static_cast<uint64_t>(
                                                entries_.num_partitions()),
                                        "COO vector broadcast"));
  auto bv = std::make_shared<std::vector<double>>(v);
  auto products = entries_.Map([bv](const MatrixEntry& e) {
    return std::pair<uint64_t, double>(e.row, e.value * (*bv)[e.col]);
  });
  auto reduced = ToPair<uint64_t, double>(std::move(products))
                     .ReduceByKey([](const double& a, const double& b) {
                       return a + b;
                     });
  std::vector<double> out(rows_, 0.0);
  for (const auto& [r, val] : reduced.Collect()) out[r] = val;
  return out;
}

Result<std::vector<double>> CooMatrixEngine::VtM(
    const std::vector<double>& v) {
  SPANGLE_RETURN_NOT_OK(budget_.Reserve(v.size() * sizeof(double) *
                                            static_cast<uint64_t>(
                                                entries_.num_partitions()),
                                        "COO vector broadcast"));
  auto bv = std::make_shared<std::vector<double>>(v);
  auto products = entries_.Map([bv](const MatrixEntry& e) {
    return std::pair<uint64_t, double>(e.col, e.value * (*bv)[e.row]);
  });
  auto reduced = ToPair<uint64_t, double>(std::move(products))
                     .ReduceByKey([](const double& a, const double& b) {
                       return a + b;
                     });
  std::vector<double> out(cols_, 0.0);
  for (const auto& [c, val] : reduced.Collect()) out[c] = val;
  return out;
}

Result<uint64_t> CooMatrixEngine::MtM() {
  // (MT M)[i][j] = sum_r M[r][i] * M[r][j]: cogroup by row then emit the
  // per-row cross product. Intermediate volume = sum_r nnz_r^2 triples.
  auto by_row = ToPair<uint64_t, std::pair<uint64_t, double>>(
      entries_.Map([](const MatrixEntry& e) {
        return std::pair<uint64_t, std::pair<uint64_t, double>>(
            e.row, {e.col, e.value});
      }));
  auto grouped = by_row.GroupByKey();
  // Estimate the explosion before paying for it (Spark would just OOM).
  const uint64_t cross_terms = grouped.AsRdd().Aggregate<uint64_t>(
      0,
      [](uint64_t acc,
         const std::pair<uint64_t,
                         std::vector<std::pair<uint64_t, double>>>& rec) {
        return acc + rec.second.size() * rec.second.size();
      },
      [](uint64_t a, uint64_t b) { return a + b; });
  SPANGLE_RETURN_NOT_OK(budget_.Reserve(cross_terms * 16,
                                        "COO MtM cross-product records"));
  auto partials = grouped.AsRdd().FlatMap(
      [](const std::pair<uint64_t,
                         std::vector<std::pair<uint64_t, double>>>& rec) {
        std::vector<std::pair<uint64_t, double>> out;
        out.reserve(rec.second.size() * rec.second.size());
        for (const auto& [ci, vi] : rec.second) {
          for (const auto& [cj, vj] : rec.second) {
            out.emplace_back(ci * (uint64_t{1} << 32) + cj, vi * vj);
          }
        }
        return out;
      });
  auto reduced = ToPair<uint64_t, double>(std::move(partials))
                     .ReduceByKey([](const double& a, const double& b) {
                       return a + b;
                     });
  return reduced.Count();
}

// ---- MLlib CSC ----

Result<std::unique_ptr<MllibMatrixEngine>> MllibMatrixEngine::Load(
    Context* ctx, const SyntheticMatrix& m, const MemoryBudget& budget) {
  auto engine = std::make_unique<MllibMatrixEngine>();
  engine->ctx_ = ctx;
  engine->rows_ = m.rows;
  engine->cols_ = m.cols;
  engine->budget_ = budget;
  internal::FirstSeenGroups<uint64_t, SparseRow> rows;
  for (const auto& e : m.entries) {
    auto& row = rows[e.row];
    row.row = e.row;
    row.cols.push_back(static_cast<uint32_t>(e.col));
    row.values.push_back(e.value);
  }
  auto grouped = rows.Take();
  SPANGLE_RETURN_NOT_OK(budget.Reserve(m.entries.size() * 12 +
                                           grouped.size() * sizeof(SparseRow),
                                       "sparse rows"));
  std::vector<SparseRow> flat;
  flat.reserve(grouped.size());
  for (auto& [r, row] : grouped) flat.push_back(std::move(row));
  engine->rows_rdd_ = ctx->Parallelize(std::move(flat));
  engine->rows_rdd_.Cache();
  return engine;
}

Result<std::vector<double>> MllibMatrixEngine::MxV(
    const std::vector<double>& v) {
  auto bv = std::make_shared<std::vector<double>>(v);
  auto products = rows_rdd_.Map([bv](const SparseRow& row) {
    double dot = 0;
    for (size_t i = 0; i < row.cols.size(); ++i) {
      dot += row.values[i] * (*bv)[row.cols[i]];
    }
    return std::pair<uint64_t, double>(row.row, dot);
  });
  std::vector<double> out(rows_, 0.0);
  for (const auto& [r, val] : products.Collect()) out[r] = val;
  return out;
}

Result<std::vector<double>> MllibMatrixEngine::VtM(
    const std::vector<double>& v) {
  // Dense cols-sized accumulator per partition (MLlib's approach).
  SPANGLE_RETURN_NOT_OK(budget_.Reserve(
      cols_ * sizeof(double) *
          static_cast<uint64_t>(rows_rdd_.num_partitions()),
      "dense VtM accumulators"));
  auto bv = std::make_shared<std::vector<double>>(v);
  const uint64_t cols = cols_;
  auto acc = rows_rdd_.Aggregate<std::vector<double>>(
      std::vector<double>(cols, 0.0),
      [bv](std::vector<double> a, const SparseRow& row) {
        const double x = (*bv)[row.row];
        for (size_t i = 0; i < row.cols.size(); ++i) {
          a[row.cols[i]] += x * row.values[i];
        }
        return a;
      },
      [](std::vector<double> a, const std::vector<double>& b) {
        for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      });
  return acc;
}

Result<uint64_t> MllibMatrixEngine::MtM() {
  // computeGramian: a dense cols x cols accumulator.
  SPANGLE_RETURN_NOT_OK(
      budget_.Reserve(cols_ * cols_ * sizeof(double), "dense Gramian"));
  const uint64_t cols = cols_;
  auto gram = rows_rdd_.Aggregate<std::vector<double>>(
      std::vector<double>(cols * cols, 0.0),
      [cols](std::vector<double> g, const SparseRow& row) {
        for (size_t i = 0; i < row.cols.size(); ++i) {
          for (size_t j = 0; j < row.cols.size(); ++j) {
            g[uint64_t{row.cols[i]} * cols + row.cols[j]] +=
                row.values[i] * row.values[j];
          }
        }
        return g;
      },
      [](std::vector<double> a, const std::vector<double>& b) {
        for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      });
  uint64_t nnz = 0;
  for (double v : gram) nnz += (v != 0.0) ? 1 : 0;
  return nnz;
}

// ---- SciSpark ----

Result<std::unique_ptr<SciSparkMatrixEngine>> SciSparkMatrixEngine::Load(
    Context* ctx, const SyntheticMatrix& m, const MemoryBudget& budget) {
  auto engine = std::make_unique<SciSparkMatrixEngine>();
  engine->ctx_ = ctx;
  engine->rows_ = m.rows;
  engine->cols_ = m.cols;
  // Dense ndarrays: the full rows x cols footprint must materialize.
  SPANGLE_RETURN_NOT_OK(
      budget.Reserve(m.rows * m.cols * sizeof(double), "dense ndarray"));
  const uint64_t band_rows = std::max<uint64_t>(1, m.rows / 16);
  const uint64_t n_bands = (m.rows + band_rows - 1) / band_rows;
  std::vector<DenseBand> bands(n_bands);
  for (uint64_t b = 0; b < n_bands; ++b) {
    bands[b].row_begin = b * band_rows;
    bands[b].rows = std::min(band_rows, m.rows - b * band_rows);
    bands[b].values.assign(bands[b].rows * m.cols, 0.0);
  }
  for (const auto& e : m.entries) {
    const uint64_t b = e.row / band_rows;
    bands[b].values[(e.row - bands[b].row_begin) * m.cols + e.col] = e.value;
  }
  engine->bands_ = ctx->Parallelize(std::move(bands));
  engine->bands_.Cache();
  return engine;
}

Result<std::vector<double>> SciSparkMatrixEngine::MxV(
    const std::vector<double>& v) {
  auto bv = std::make_shared<std::vector<double>>(v);
  const uint64_t cols = cols_;
  auto partials = bands_.Map([bv, cols](const DenseBand& band) {
    std::vector<double> out(band.rows, 0.0);
    for (uint64_t r = 0; r < band.rows; ++r) {
      double dot = 0;
      for (uint64_t c = 0; c < cols; ++c) {
        dot += band.values[r * cols + c] * (*bv)[c];
      }
      out[r] = dot;
    }
    return std::make_pair(band.row_begin, std::move(out));
  });
  std::vector<double> out(rows_, 0.0);
  for (const auto& [begin, vals] : partials.Collect()) {
    std::copy(vals.begin(), vals.end(), out.begin() + begin);
  }
  return out;
}

Result<std::vector<double>> SciSparkMatrixEngine::VtM(
    const std::vector<double>& v) {
  auto bv = std::make_shared<std::vector<double>>(v);
  const uint64_t cols = cols_;
  auto acc = bands_.Aggregate<std::vector<double>>(
      std::vector<double>(cols, 0.0),
      [bv, cols](std::vector<double> a, const DenseBand& band) {
        for (uint64_t r = 0; r < band.rows; ++r) {
          const double x = (*bv)[band.row_begin + r];
          if (x == 0.0) continue;
          for (uint64_t c = 0; c < cols; ++c) {
            a[c] += x * band.values[r * cols + c];
          }
        }
        return a;
      },
      [](std::vector<double> a, const std::vector<double>& b) {
        for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      });
  return acc;
}

Result<uint64_t> SciSparkMatrixEngine::MtM() {
  return Status::Unimplemented(
      "SciSpark provides no distributed matrix multiplication");
}

// ---- SciDB ----

Result<std::unique_ptr<SciDbMatrixEngine>> SciDbMatrixEngine::Load(
    const SyntheticMatrix& m, const std::string& dir) {
  auto engine = std::unique_ptr<SciDbMatrixEngine>(new SciDbMatrixEngine());
  engine->rows_ = m.rows;
  engine->cols_ = m.cols;
  engine->file_ =
      dir + "/scidb_matrix_" + m.name + "_" + UniqueDiskFileTag() + ".bin";
  std::ofstream out(engine->file_, std::ios::binary);
  if (!out) return Status::IOError("cannot create " + engine->file_);
  for (const auto& e : m.entries) {
    DiskEntry de{e.row, e.col, e.value};
    out.write(reinterpret_cast<const char*>(&de), sizeof(de));
  }
  if (!out) return Status::IOError("write failed: " + engine->file_);
  return engine;
}

SciDbMatrixEngine::~SciDbMatrixEngine() { std::remove(file_.c_str()); }

Status SciDbMatrixEngine::Scan(
    const std::function<void(const DiskEntry&)>& fn) const {
  std::ifstream in(file_, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + file_);
  DiskEntry de;
  while (in.read(reinterpret_cast<char*>(&de), sizeof(de))) fn(de);
  return Status::OK();
}

Result<std::vector<double>> SciDbMatrixEngine::MxV(
    const std::vector<double>& v) {
  std::vector<double> out(rows_, 0.0);
  SPANGLE_RETURN_NOT_OK(Scan([&](const DiskEntry& e) {
    out[e.row] += e.value * v[e.col];
  }));
  return out;
}

Result<std::vector<double>> SciDbMatrixEngine::VtM(
    const std::vector<double>& v) {
  std::vector<double> out(cols_, 0.0);
  SPANGLE_RETURN_NOT_OK(Scan([&](const DiskEntry& e) {
    out[e.col] += e.value * v[e.row];
  }));
  return out;
}

Result<uint64_t> SciDbMatrixEngine::MtM() {
  // Disk-based: re-scan the matrix once per row group, spilling partial
  // products to a temp file between the two passes.
  internal::FirstSeenGroups<uint64_t, std::vector<std::pair<uint64_t, double>>>
      by_row;
  SPANGLE_RETURN_NOT_OK(Scan([&](const DiskEntry& e) {
    by_row[e.row].emplace_back(e.col, e.value);
  }));
  const std::string tmp = file_ + ".mtm_tmp";
  uint64_t written = 0;
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return Status::IOError("cannot create " + tmp);
    for (const auto& [r, cells] : by_row.Take()) {
      for (const auto& [ci, vi] : cells) {
        for (const auto& [cj, vj] : cells) {
          DiskEntry de{ci, cj, vi * vj};
          out.write(reinterpret_cast<const char*>(&de), sizeof(de));
          ++written;
        }
      }
    }
  }
  std::unordered_map<uint64_t, double> acc;
  {
    std::ifstream in(tmp, std::ios::binary);
    if (!in) return Status::IOError("cannot reopen " + tmp);
    DiskEntry de;
    while (in.read(reinterpret_cast<char*>(&de), sizeof(de))) {
      acc[de.row * (uint64_t{1} << 32) + de.col] += de.value;
    }
  }
  std::remove(tmp.c_str());
  uint64_t nnz = 0;
  for (const auto& [k, v] : acc) nnz += (v != 0.0) ? 1 : 0;
  return nnz;
}

}  // namespace spangle
