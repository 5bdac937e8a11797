#ifndef SPANGLE_ENGINE_BLOCK_MANAGER_H_
#define SPANGLE_ENGINE_BLOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/metrics.h"
#include "engine/storage_level.h"

namespace spangle {

/// Identifies one cached partition: (lineage node id, partition index).
struct BlockId {
  uint64_t node = 0;
  int partition = 0;

  friend bool operator==(const BlockId& a, const BlockId& b) {
    return a.node == b.node && a.partition == b.partition;
  }
};

/// Storage configuration for a Context (Spark's spark.memory.* knobs).
struct StorageOptions {
  /// Total bytes of cached partitions held in memory across the whole
  /// context; 0 = unlimited. When full, least-recently-used blocks are
  /// evicted (dropped or spilled, per their storage level).
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill files; "" creates (and owns) a unique temp dir.
  std::string spill_dir;
};

/// The context-owned block store (Spark's BlockManager): every cached
/// partition in the system — node caches and shuffle outputs — lives
/// here, keyed by (node, partition). The manager accounts each block's
/// estimated bytes, enforces the memory budget with LRU eviction, spills
/// MEMORY_AND_DISK blocks to chunk-frame files, and models executor
/// loss: each partition is "resident" on worker (partition % workers),
/// and FailExecutor(w) discards every block — memory and local disk —
/// that lived on w. Lost recomputable blocks are remembered so lineage
/// recomputation can be counted; lost shuffle blocks make their node
/// report !IsMaterialized(), which re-runs the shuffle before the next
/// action. A failed spill never aborts: an evicted block lineage can
/// recompute is dropped as lost, any other block stays resident, and a
/// DISK_ONLY put that cannot reach disk stays in memory.
///
/// Thread safe. Payloads are shared_ptrs, so readers keep their data
/// alive even when the block is evicted underneath them.
class BlockManager {
 public:
  using DataPtr = std::shared_ptr<const void>;
  /// Writes a block payload to `path`; returns bytes written.
  using SpillFn =
      std::function<Result<uint64_t>(const void*, const std::string&)>;

  /// Reads a block payload back from `path`; an error (file gone or
  /// corrupt) makes Get drop the block as lost.
  using LoadFn = std::function<Result<DataPtr>(const std::string&)>;

  struct GetResult {
    DataPtr data;           // null when the block is not available
    bool was_lost = false;  // block existed once but was dropped/evicted
                            // without a disk copy (caller recomputes)
  };

  BlockManager(const StorageOptions& options, int num_workers,
               EngineMetrics* metrics);
  ~BlockManager();

  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Stores a block. `bytes` is its estimated in-memory size. `spill` /
  /// `load` may be null for unspillable record types; a null-spill
  /// MEMORY_AND_DISK block is treated as MEMORY_ONLY, and a null-spill
  /// non-recomputable block (shuffle output) is pinned in memory.
  /// Replaces any previous payload under the same id. `content_hash` is
  /// the block's content address (chunk-frame hash; 0 = unhashed).
  void Put(const BlockId& id, DataPtr data, uint64_t bytes, StorageLevel level,
           SpillFn spill, LoadFn load, bool recomputable = true,
           uint64_t content_hash = 0) EXCLUDES(mu_);

  /// Stores like Put, but keeps any payload already available (in memory
  /// or on disk) under the same id — the idempotent commit path used when
  /// one partition is computed more than once (task retries, concurrent
  /// jobs over a shared cached node, partial shuffle re-materialization).
  /// Returns false when an existing payload was kept, so the caller knows
  /// its copy was discarded.
  ///
  /// Keeping an existing payload committed under the same nonzero
  /// `content_hash` counts a shuffle_block_dedup_hits.
  bool PutIfAbsent(const BlockId& id, DataPtr data, uint64_t bytes,
                   StorageLevel level, SpillFn spill, LoadFn load,
                   bool recomputable = true, uint64_t content_hash = 0)
      EXCLUDES(mu_);

  /// Fetches a block: from memory (LRU touch), or from its spill file
  /// (counted as a disk read; re-admitted to memory unless DISK_ONLY).
  /// A spill file that cannot be read back drops the block as lost, as if
  /// its executor died. data == null means the caller must recompute from
  /// lineage (a lost shuffle output re-runs its shuffle).
  // spangle-lint: may-block — a spilled block is re-read from disk via
  // the (statically unresolvable) LoadFn callback.
  GetResult Get(const BlockId& id) EXCLUDES(mu_);

  /// True when the block is available in memory or on disk.
  bool Contains(const BlockId& id) const EXCLUDES(mu_);

  /// The content address the block was committed with; 0 when the block
  /// is absent, not committed, or was stored unhashed.
  uint64_t ContentHashOf(const BlockId& id) const EXCLUDES(mu_);

  /// True when all of `node`'s partitions [0, num_partitions) are
  /// available; shuffle nodes use this as their materialization check.
  bool ContainsAll(uint64_t node, int num_partitions) const EXCLUDES(mu_);

  /// Fault injection: discards one block (memory + disk) as if its
  /// executor died. No-op when the block does not exist.
  void DropBlock(const BlockId& id) EXCLUDES(mu_);

  /// Removes every block of `node` and forgets its history (unpersist;
  /// also called by the node's destructor).
  void DropNode(uint64_t node) EXCLUDES(mu_);

  /// Fault injection: drops every block resident on `worker`, memory and
  /// executor-local disk alike.
  void FailExecutor(int worker) EXCLUDES(mu_);

  uint64_t memory_budget() const { return budget_; }
  uint64_t bytes_in_memory() const EXCLUDES(mu_);
  size_t num_resident_blocks() const EXCLUDES(mu_);

 private:
  struct Block {
    DataPtr data;        // in-memory payload; null when evicted
    uint64_t bytes = 0;  // estimated in-memory size
    uint64_t content_hash = 0;  // chunk-frame content address; 0 = unhashed
    StorageLevel level = StorageLevel::kMemoryOnly;
    bool on_disk = false;
    bool lost = false;         // dropped with no disk copy; next Get
                               // reports was_lost so recompute is counted
    bool recomputable = true;  // false = shuffle output (pinned when
                               // it cannot spill)
    std::string path;          // spill file, valid when on_disk
    SpillFn spill;
    LoadFn load;
    std::list<BlockId>::iterator lru_it;  // valid iff data != null
  };

  // All private helpers require mu_ (machine-checked via REQUIRES).
  void PutLocked(const BlockId& id, DataPtr data, uint64_t bytes,
                 StorageLevel level, SpillFn spill, LoadFn load,
                 bool recomputable, uint64_t content_hash) REQUIRES(mu_);
  Block* Find(const BlockId& id) REQUIRES(mu_);
  const Block* Find(const BlockId& id) const REQUIRES(mu_);
  void InsertResident(const BlockId& id, Block& b, DataPtr data)
      REQUIRES(mu_);
  void ReleaseMemory(Block& b) REQUIRES(mu_);
  void EvictToFit(uint64_t incoming, const BlockId& protect) REQUIRES(mu_);
  void EvictBlock(const BlockId& id, Block& b) REQUIRES(mu_);
  // Writes `data` to b's spill file; false (with a logged warning) when
  // the write failed and the block has no disk copy.
  // spangle-lint: may-block — writes the payload through the SpillFn
  // callback (disk I/O the call graph cannot see). Spilling under mu_
  // is the documented eviction design; see DESIGN.md.
  bool SpillBlock(const BlockId& id, Block& b, const void* data)
      REQUIRES(mu_);
  void RemoveFile(Block& b) REQUIRES(mu_);
  void DropBlockLocked(const BlockId& id, Block& b) REQUIRES(mu_);
  Result<std::string> PathFor(const BlockId& id) REQUIRES(mu_);
  void UpdateGauges() REQUIRES(mu_);

  const uint64_t budget_;
  const int num_workers_;
  EngineMetrics* metrics_;
  std::string spill_dir_;           // set in the constructor, then const
  bool owns_spill_dir_ = false;     // set in the constructor, then const
  bool spill_dir_ready_ GUARDED_BY(mu_) = false;  // set lazily by PathFor

  // mu_ is a leaf-adjacent lock (rank kBlockManager): while held, the
  // only callouts are spill/load codecs, which take no engine locks.
  mutable Mutex mu_{LockRank::kBlockManager, "BlockManager::mu_"};
  // node id -> partition -> block.
  std::unordered_map<uint64_t, std::unordered_map<int, Block>> blocks_
      GUARDED_BY(mu_);
  // front = least recently used resident block
  std::list<BlockId> lru_ GUARDED_BY(mu_);
  uint64_t bytes_in_memory_ GUARDED_BY(mu_) = 0;
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_BLOCK_MANAGER_H_
