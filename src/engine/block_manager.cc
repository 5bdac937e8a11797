#include "engine/block_manager.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <vector>

#include "common/logging.h"

namespace spangle {

namespace {
namespace fs = std::filesystem;

std::string MakeUniqueSpillDir() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1);
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("spangle-blocks-" + std::to_string(::getpid()) + "-" +
                  std::to_string(n)))
      .string();
}
}  // namespace

BlockManager::BlockManager(const StorageOptions& options, int num_workers,
                           EngineMetrics* metrics)
    : budget_(options.memory_budget_bytes),
      num_workers_(num_workers > 0 ? num_workers : 1),
      metrics_(metrics) {
  if (options.spill_dir.empty()) {
    spill_dir_ = MakeUniqueSpillDir();
    owns_spill_dir_ = true;
  } else {
    spill_dir_ = options.spill_dir;
  }
}

BlockManager::~BlockManager() {
  std::error_code ec;
  if (owns_spill_dir_) {
    fs::remove_all(spill_dir_, ec);
    return;
  }
  // User-provided directory: remove only the files we created. Locked:
  // a racing reader must not see blocks_ mid-teardown.
  MutexLock lock(&mu_);
  for (auto& [node, parts] : blocks_) {
    for (auto& [p, b] : parts) {
      if (b.on_disk) fs::remove(b.path, ec);
    }
  }
}

BlockManager::Block* BlockManager::Find(const BlockId& id) {
  auto nit = blocks_.find(id.node);
  if (nit == blocks_.end()) return nullptr;
  auto pit = nit->second.find(id.partition);
  return pit == nit->second.end() ? nullptr : &pit->second;
}

const BlockManager::Block* BlockManager::Find(const BlockId& id) const {
  auto nit = blocks_.find(id.node);
  if (nit == blocks_.end()) return nullptr;
  auto pit = nit->second.find(id.partition);
  return pit == nit->second.end() ? nullptr : &pit->second;
}

Result<std::string> BlockManager::PathFor(const BlockId& id) {
  if (!spill_dir_ready_) {
    std::error_code ec;
    fs::create_directories(spill_dir_, ec);
    if (ec) {
      return Status::IOError("cannot create spill dir " + spill_dir_ + ": " +
                             ec.message());
    }
    spill_dir_ready_ = true;
  }
  return spill_dir_ + "/block_" + std::to_string(id.node) + "_" +
         std::to_string(id.partition) + ".spill";
}

void BlockManager::UpdateGauges() {
  metrics_->bytes_cached.store(bytes_in_memory_);
  if (bytes_in_memory_ > metrics_->memory_high_water.load()) {
    metrics_->memory_high_water.store(bytes_in_memory_);
  }
}

void BlockManager::InsertResident(const BlockId& id, Block& b, DataPtr data) {
  b.data = std::move(data);
  b.lost = false;
  b.lru_it = lru_.insert(lru_.end(), id);
  bytes_in_memory_ += b.bytes;
  UpdateGauges();
}

void BlockManager::ReleaseMemory(Block& b) {
  if (b.data == nullptr) return;
  lru_.erase(b.lru_it);
  bytes_in_memory_ -= b.bytes;
  b.data = nullptr;
  UpdateGauges();
}

bool BlockManager::SpillBlock(const BlockId& id, Block& b, const void* data) {
  if (b.on_disk) return true;
  Result<std::string> path = PathFor(id);
  const Result<uint64_t> written =
      path.ok() ? b.spill(data, *path) : Result<uint64_t>(path.status());
  if (!written.ok()) {
    std::error_code ec;
    if (path.ok()) fs::remove(*path, ec);  // no partial file left behind
    SPANGLE_LOG(Warning) << "spill of block (" << id.node << ", "
                         << id.partition
                         << ") failed: " << written.status().ToString();
    return false;
  }
  b.path = *std::move(path);
  b.on_disk = true;
  metrics_->spilled_bytes.fetch_add(*written);
  return true;
}

void BlockManager::RemoveFile(Block& b) {
  if (!b.on_disk) return;
  std::error_code ec;
  fs::remove(b.path, ec);
  b.on_disk = false;
  b.path.clear();
}

void BlockManager::EvictBlock(const BlockId& id, Block& b) {
  // A DISK_ONLY block is resident only after its put failed to spill, so
  // eviction retries the write like any disk-backed level. When the
  // spill fails, a block lineage cannot recompute (shuffle output) stays
  // resident; any other block is dropped as lost below.
  if (b.level != StorageLevel::kMemoryOnly && b.spill != nullptr) {
    // blocking-ok: spill-before-evict under mu_ is the documented eviction
    // design — the budget must not be released before the bytes are safe.
    const bool spilled = SpillBlock(id, b, b.data.get());
    if (!spilled && !b.recomputable) return;
  }
  if (!b.on_disk) b.lost = true;
  ReleaseMemory(b);
  metrics_->evictions.fetch_add(1);
}

void BlockManager::EvictToFit(uint64_t incoming, const BlockId& protect) {
  if (budget_ == 0) return;
  auto it = lru_.begin();
  while (bytes_in_memory_ + incoming > budget_ && it != lru_.end()) {
    const BlockId victim = *it;
    ++it;
    if (victim == protect) continue;
    Block* vb = Find(victim);
    SPANGLE_CHECK(vb != nullptr && vb->data != nullptr)
        << "LRU entry without a resident block";
    // A block that can neither spill nor be recomputed (unspillable
    // shuffle output) is pinned: losing it would be unrecoverable
    // mid-action.
    if (!vb->recomputable && vb->spill == nullptr) continue;
    // blocking-ok: eviction may spill to disk; designed blocking (above).
    EvictBlock(victim, *vb);
  }
}

void BlockManager::Put(const BlockId& id, DataPtr data, uint64_t bytes,
                       StorageLevel level, SpillFn spill, LoadFn load,
                       bool recomputable, uint64_t content_hash) {
  MutexLock lock(&mu_);
  // blocking-ok: admission may evict-and-spill; designed blocking.
  PutLocked(id, std::move(data), bytes, level, std::move(spill),
            std::move(load), recomputable, content_hash);
}

bool BlockManager::PutIfAbsent(const BlockId& id, DataPtr data, uint64_t bytes,
                               StorageLevel level, SpillFn spill, LoadFn load,
                               bool recomputable, uint64_t content_hash) {
  MutexLock lock(&mu_);
  const Block* existing = Find(id);
  if (existing != nullptr &&
      (existing->data != nullptr || existing->on_disk)) {
    // A usable payload is already committed: keep it. When both commits
    // carry the same content address this is a counted dedup — the
    // retried-task / partial-rerun / raced-job case.
    if (content_hash != 0 && existing->content_hash == content_hash) {
      metrics_->shuffle_block_dedup_hits.fetch_add(1);
    }
    return false;
  }
  // blocking-ok: admission may evict-and-spill; designed blocking.
  PutLocked(id, std::move(data), bytes, level, std::move(spill),
            std::move(load), recomputable, content_hash);
  return true;
}

void BlockManager::PutLocked(const BlockId& id, DataPtr data, uint64_t bytes,
                             StorageLevel level, SpillFn spill, LoadFn load,
                             bool recomputable, uint64_t content_hash) {
  Block& b = blocks_[id.node][id.partition];
  ReleaseMemory(b);  // replacing: drop the old payload's accounting
  RemoveFile(b);     // a stale spill file no longer matches the payload
  b.bytes = bytes;
  b.content_hash = content_hash;
  b.level = level;
  b.recomputable = recomputable;
  b.spill = std::move(spill);
  b.load = std::move(load);
  b.lost = false;
  // A DISK_ONLY block is never resident, unless its write fails: then it
  // stays in memory rather than being lost.
  if (level == StorageLevel::kDiskOnly && b.spill != nullptr) {
    // blocking-ok: a DISK_ONLY put writes through; designed blocking.
    if (SpillBlock(id, b, data.get())) return;
  }
  // blocking-ok: eviction may spill to disk; designed blocking.
  EvictToFit(bytes, id);
  InsertResident(id, b, std::move(data));
}

BlockManager::GetResult BlockManager::Get(const BlockId& id) {
  MutexLock lock(&mu_);
  Block* b = Find(id);
  if (b == nullptr) return {};
  if (b->data != nullptr) {
    // LRU touch: move to the most-recently-used end.
    lru_.splice(lru_.end(), lru_, b->lru_it);
    return {b->data, false};
  }
  if (b->on_disk && b->load != nullptr) {
    Result<DataPtr> read = b->load(b->path);
    metrics_->disk_reads.fetch_add(1);
    if (!read.ok()) {
      SPANGLE_LOG(Warning) << "spill file of block (" << id.node << ", "
                           << id.partition << ") is unreadable, dropping "
                           << "it as lost: " << read.status().ToString();
      const bool recomputable = b->recomputable;
      DropBlockLocked(id, *b);  // erases a shuffle output's entry
      return {nullptr, recomputable};
    }
    DataPtr data = *std::move(read);
    if (b->level != StorageLevel::kDiskOnly) {
      // blocking-ok: re-admission may evict-and-spill; designed blocking.
      EvictToFit(b->bytes, id);
      InsertResident(id, *b, data);
    }
    return {std::move(data), false};
  }
  return {nullptr, b->lost};
}

bool BlockManager::Contains(const BlockId& id) const {
  MutexLock lock(&mu_);
  const Block* b = Find(id);
  return b != nullptr && (b->data != nullptr || b->on_disk);
}

uint64_t BlockManager::ContentHashOf(const BlockId& id) const {
  MutexLock lock(&mu_);
  const Block* b = Find(id);
  if (b == nullptr || (b->data == nullptr && !b->on_disk)) return 0;
  return b->content_hash;
}

bool BlockManager::ContainsAll(uint64_t node, int num_partitions) const {
  MutexLock lock(&mu_);
  auto nit = blocks_.find(node);
  if (nit == blocks_.end()) return num_partitions == 0;
  for (int p = 0; p < num_partitions; ++p) {
    auto pit = nit->second.find(p);
    if (pit == nit->second.end()) return false;
    const Block& b = pit->second;
    if (b.data == nullptr && !b.on_disk) return false;
  }
  return true;
}

void BlockManager::DropBlockLocked(const BlockId& id, Block& b) {
  ReleaseMemory(b);
  RemoveFile(b);
  if (b.recomputable) {
    b.lost = true;  // remembered so the recompute is counted
  } else {
    // Shuffle output: erase entirely; the owning node re-materializes
    // when ContainsAll turns false.
    auto nit = blocks_.find(id.node);
    nit->second.erase(id.partition);
    if (nit->second.empty()) blocks_.erase(nit);
  }
}

void BlockManager::DropBlock(const BlockId& id) {
  MutexLock lock(&mu_);
  Block* b = Find(id);
  if (b == nullptr) return;
  DropBlockLocked(id, *b);
}

void BlockManager::DropNode(uint64_t node) {
  MutexLock lock(&mu_);
  auto nit = blocks_.find(node);
  if (nit == blocks_.end()) return;
  for (auto& [p, b] : nit->second) {
    ReleaseMemory(b);
    RemoveFile(b);
  }
  blocks_.erase(nit);
}

void BlockManager::FailExecutor(int worker) {
  MutexLock lock(&mu_);
  std::vector<BlockId> victims;
  for (auto& [node, parts] : blocks_) {
    for (auto& [p, b] : parts) {
      if (p % num_workers_ == worker) victims.push_back({node, p});
    }
  }
  for (const BlockId& id : victims) {
    Block* b = Find(id);
    if (b != nullptr) DropBlockLocked(id, *b);
  }
}

uint64_t BlockManager::bytes_in_memory() const {
  MutexLock lock(&mu_);
  return bytes_in_memory_;
}

size_t BlockManager::num_resident_blocks() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

}  // namespace spangle
