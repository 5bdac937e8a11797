#ifndef SPANGLE_ENGINE_STORAGE_LEVEL_H_
#define SPANGLE_ENGINE_STORAGE_LEVEL_H_

namespace spangle {

/// Spark-style persistence levels for cached partitions (blocks).
///
///  * kNone          — not persisted; every access recomputes from lineage.
///  * kMemoryOnly    — kept on-heap; under memory pressure the block is
///                     dropped and the next access recomputes it.
///  * kMemoryAndDisk — kept on-heap; under memory pressure the block is
///                     spilled to a local file (one chunk frame, see
///                     codec/frame_file.h) and read back on demand.
///  * kDiskOnly      — written straight to disk and never held in memory;
///                     every access streams the file back.
///
/// Levels that require disk need a spillable record type
/// (codec::kSpillable in codec/record_codec.h); otherwise they degrade to
/// kMemoryOnly with a warning.
enum class StorageLevel {
  kNone = 0,
  kMemoryOnly,
  kMemoryAndDisk,
  kDiskOnly,
};

inline const char* ToString(StorageLevel level) {
  switch (level) {
    case StorageLevel::kNone:
      return "NONE";
    case StorageLevel::kMemoryOnly:
      return "MEMORY_ONLY";
    case StorageLevel::kMemoryAndDisk:
      return "MEMORY_AND_DISK";
    case StorageLevel::kDiskOnly:
      return "DISK_ONLY";
  }
  return "UNKNOWN";
}

}  // namespace spangle

#endif  // SPANGLE_ENGINE_STORAGE_LEVEL_H_
