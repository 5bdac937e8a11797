#include "baselines/diskdb.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "engine/first_seen_groups.h"

namespace spangle {

std::string UniqueDiskFileTag() {
  static std::atomic<uint64_t> counter{0};
  return std::to_string(static_cast<uint64_t>(::getpid())) + "_" +
         std::to_string(counter.fetch_add(1));
}

Result<SciDbEngine> SciDbEngine::Load(const RasterData& data,
                                      const std::string& dir) {
  if (data.meta.num_dims() != 3) {
    return Status::InvalidArgument("SciDB engine expects 3-d rasters");
  }
  SciDbEngine engine;
  engine.dir_ = dir;
  engine.attr_names_ = data.attr_names;
  engine.owns_files_ = true;
  const std::string tag = UniqueDiskFileTag();
  for (size_t a = 0; a < data.cells.size(); ++a) {
    const std::string path =
        dir + "/scidb_attr_" + tag + "_" + std::to_string(a) + ".bin";
    std::ofstream out(path, std::ios::binary);
    if (!out) return Status::IOError("cannot create " + path);
    // Cells sorted by coordinates: the store is coordinate-clustered.
    auto cells = data.cells[a];
    std::sort(cells.begin(), cells.end(),
              [](const CellValue& x, const CellValue& y) {
                return x.pos < y.pos;
              });
    for (const auto& cell : cells) {
      DiskCell dc;
      dc.pos[0] = cell.pos[0];
      dc.pos[1] = cell.pos[1];
      dc.pos[2] = cell.pos[2];
      dc.value = cell.value;
      out.write(reinterpret_cast<const char*>(&dc), sizeof(dc));
    }
    if (!out) return Status::IOError("write failed: " + path);
    engine.files_.push_back(path);
  }
  return engine;
}

SciDbEngine::~SciDbEngine() {
  if (owns_files_) {
    for (const auto& f : files_) std::remove(f.c_str());
  }
}

Result<size_t> SciDbEngine::AttrIndex(const std::string& attr) const {
  for (size_t a = 0; a < attr_names_.size(); ++a) {
    if (attr_names_[a] == attr) return a;
  }
  return Status::NotFound("no attribute '" + attr + "'");
}

Status SciDbEngine::ScanAttr(
    size_t attr, const QueryParams& q,
    const std::function<void(const DiskCell&)>& fn) const {
  std::ifstream in(files_[attr], std::ios::binary);
  if (!in) return Status::IOError("cannot open " + files_[attr]);
  DiskCell dc;
  while (in.read(reinterpret_cast<char*>(&dc), sizeof(dc))) {
    if (q.use_range) {
      // Predicate push-down: evaluated during the scan, nothing else
      // touches the filtered-out cells.
      bool inside = true;
      for (int d = 0; d < 3; ++d) {
        if (dc.pos[d] < q.lo[d] || dc.pos[d] > q.hi[d]) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
    }
    fn(dc);
  }
  return Status::OK();
}

Result<double> SciDbEngine::Q1Average(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t attr, AttrIndex(q.attr));
  double sum = 0;
  uint64_t n = 0;
  SPANGLE_RETURN_NOT_OK(ScanAttr(attr, q, [&](const DiskCell& dc) {
    sum += dc.value;
    ++n;
  }));
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Result<uint64_t> SciDbEngine::GroupToDiskAndCount(
    size_t attr, const QueryParams& q,
    const std::function<bool(double, uint64_t)>& keep) const {
  // Operator 1: scan + group, accumulating (sum, count) per block.
  internal::FirstSeenGroups<uint64_t, std::pair<double, uint64_t>> groups;
  SPANGLE_RETURN_NOT_OK(ScanAttr(attr, q, [&](const DiskCell& dc) {
    const uint64_t key =
        ((static_cast<uint64_t>(dc.pos[0]) / q.grid[0]) * 1000003 +
         static_cast<uint64_t>(dc.pos[1]) / q.grid[1]) *
            1000003 +
        static_cast<uint64_t>(dc.pos[2]) / q.grid[2];
    auto& slot = groups[key];
    slot.first += dc.value;
    slot.second += 1;
  }));
  // Operator boundary: the grouped intermediate spills to disk before
  // the evaluating operator reads it back.
  const std::string tmp =
      dir_ + "/scidb_tmp_groups_" + UniqueDiskFileTag() + ".bin";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return Status::IOError("cannot create " + tmp);
    for (const auto& [key, slot] : groups.Take()) {
      out.write(reinterpret_cast<const char*>(&key), sizeof(key));
      out.write(reinterpret_cast<const char*>(&slot), sizeof(slot));
    }
  }
  uint64_t kept = 0;
  {
    std::ifstream in(tmp, std::ios::binary);
    if (!in) return Status::IOError("cannot reopen " + tmp);
    uint64_t key = 0;
    std::pair<double, uint64_t> slot;
    while (in.read(reinterpret_cast<char*>(&key), sizeof(key)) &&
           in.read(reinterpret_cast<char*>(&slot), sizeof(slot))) {
      if (keep(slot.first, slot.second)) ++kept;
    }
  }
  std::remove(tmp.c_str());
  return kept;
}

Result<uint64_t> SciDbEngine::Q2Regrid(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t attr, AttrIndex(q.attr));
  if (q.grid.size() != 3) {
    return Status::InvalidArgument("Q2 grid must be 3-dimensional");
  }
  return GroupToDiskAndCount(attr, q,
                             [](double, uint64_t n) { return n > 0; });
}

Result<double> SciDbEngine::Q3FilteredAverage(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t attr, AttrIndex(q.attr));
  double sum = 0;
  uint64_t n = 0;
  const double threshold = q.threshold;
  SPANGLE_RETURN_NOT_OK(ScanAttr(attr, q, [&](const DiskCell& dc) {
    if (dc.value > threshold) {
      sum += dc.value;
      ++n;
    }
  }));
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Result<uint64_t> SciDbEngine::Q4Polygons(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t a1, AttrIndex(q.attr));
  SPANGLE_ASSIGN_OR_RETURN(size_t a2, AttrIndex(q.attr2));
  // Join of two attributes: the first pass materializes passing
  // positions; the second streams the other attribute against them.
  std::unordered_map<int64_t, std::unordered_map<int64_t, std::vector<int64_t>>>
      pass1;
  const double t1 = q.threshold;
  SPANGLE_RETURN_NOT_OK(ScanAttr(a1, q, [&](const DiskCell& dc) {
    if (dc.value > t1) pass1[dc.pos[0]][dc.pos[1]].push_back(dc.pos[2]);
  }));
  for (auto& [img, cols] : pass1) {
    for (auto& [x, ys] : cols) std::sort(ys.begin(), ys.end());
  }
  uint64_t count = 0;
  const double t2 = q.threshold2;
  SPANGLE_RETURN_NOT_OK(ScanAttr(a2, q, [&](const DiskCell& dc) {
    if (dc.value <= t2) return;
    auto img_it = pass1.find(dc.pos[0]);
    if (img_it == pass1.end()) return;
    auto col_it = img_it->second.find(dc.pos[1]);
    if (col_it == img_it->second.end()) return;
    if (std::binary_search(col_it->second.begin(), col_it->second.end(),
                           dc.pos[2])) {
      ++count;
    }
  }));
  return count;
}

Result<uint64_t> SciDbEngine::Q5Density(const QueryParams& q) {
  SPANGLE_ASSIGN_OR_RETURN(size_t attr, AttrIndex(q.attr));
  if (q.grid.size() != 3) {
    return Status::InvalidArgument("Q5 grid must be 3-dimensional");
  }
  const double cut = q.min_count;
  return GroupToDiskAndCount(attr, q, [cut](double, uint64_t n) {
    return static_cast<double>(n) > cut;
  });
}

}  // namespace spangle
