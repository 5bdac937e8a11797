#ifndef SPANGLE_CODEC_CHUNK_FRAME_H_
#define SPANGLE_CODEC_CHUNK_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace spangle {
namespace codec {

/// The columnar chunk frame: the versioned, self-describing container
/// every encoded partition travels in — spill files, shuffle blocks, and
/// the PutBlock/FetchBlock RPC payloads are all exactly one frame.
///
/// Layout (little-endian):
///
///   offset  size  field
///   0       4     magic "SPCF"
///   4       1     version (kFrameVersion)
///   5       1     section count
///   6       2     flags (reserved, must be 0)
///   8       4     record count
///   12      8     content hash
///   20      16*n  section table (one SectionDesc per section)
///   ...           section payload slabs, back to back, in table order
///
/// Section table entry:
///
///   u8  kind      (SectionKind)
///   u8  encoding  (SectionEncoding)
///   u16 reserved (0)
///   u32 reserved (0)
///   u64 payload bytes
///
/// The content hash is Hash64 over the 12 header bytes before the hash
/// field, chained over everything after it (table + slabs) — so record
/// count, section layout, and every payload byte are all committed. It is
/// the frame's *content address*: equal hash <=> equal frame bytes (up to
/// hash collision), which is what lets BlockManager dedup a task retry,
/// a partial shuffle rerun, and a re-planned stage to one stored block, and
/// lets the RPC layer turn silent wire corruption into a retryable fetch
/// error.
///
/// Parsing is strict and Status-returning (frames cross process
/// boundaries): bad magic / version / flags, a section table that
/// overruns the buffer, slab sizes that do not add up to the remaining
/// bytes, or a content-hash mismatch are all errors, never crashes.

inline constexpr char kFrameMagic[4] = {'S', 'P', 'C', 'F'};
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr size_t kSectionDescBytes = 16;
inline constexpr size_t kMaxFrameSections = 8;

/// What a section holds. Values are wire format — append only.
enum class SectionKind : uint8_t {
  kKeys = 1,      // the pair-key column
  kValues = 2,    // the payload column (or whole records for kRaw types)
  kPresence = 3,  // bitpacked presence bitmask for a zero-suppressed
                  // values section (bit i set <=> record i stored)
  kRecords = 4,   // record-codec fallback: records back to back
};

/// How a section's payload is encoded. Values are wire format.
enum class SectionEncoding : uint8_t {
  kRaw = 0,             // verbatim slab (memcpy / record codec)
  kVarintDelta = 1,     // zigzag(delta) varints (integer columns)
  kZeroSuppressed = 2,  // only not-all-zero elements, driven by the
                        // preceding kPresence section
  kBitpacked = 3,       // one bit per record (kPresence sections)
};

struct SectionDesc {
  SectionKind kind = SectionKind::kValues;
  SectionEncoding encoding = SectionEncoding::kRaw;
  uint64_t bytes = 0;
};

/// Computes the frame's content hash from its full encoded bytes. The
/// caller must know `size >= kFrameHeaderBytes`.
uint64_t ComputeFrameHash(const char* data, size_t size);

/// Extracts the *stored* content hash without validating the body; used
/// where the bytes were already validated (or will be) and only the
/// address is needed. Fails on a buffer too short to be a frame.
Result<uint64_t> PeekFrameHash(const char* data, size_t size);

/// Assembles one frame. Sections are declared up front (the table is
/// sized before payloads stream in), then written back to back via
/// buffer()/EndSection; Finish() patches the table and content hash.
///
///   FrameBuilder b(records.size(), /*num_sections=*/2);
///   b.BeginSection(SectionKind::kKeys, SectionEncoding::kVarintDelta);
///   ... append key bytes to *b.buffer() ...
///   b.EndSection();
///   b.BeginSection(SectionKind::kValues, SectionEncoding::kRaw);
///   ... append value bytes ...
///   b.EndSection();
///   std::string frame = b.Finish(&content_hash);
class FrameBuilder {
 public:
  FrameBuilder(uint32_t record_count, int num_sections);

  /// Opens the next declared section; payload bytes are appended to
  /// *buffer() until EndSection(). Sections must be opened in order.
  void BeginSection(SectionKind kind, SectionEncoding encoding);
  std::string* buffer() { return &bytes_; }
  void EndSection();

  /// Patches the section table and content hash and moves the frame out.
  /// All declared sections must be closed. The builder is spent after.
  std::string Finish(uint64_t* content_hash);

 private:
  const int num_sections_;
  int begun_ = 0;
  int ended_ = 0;
  size_t section_start_ = 0;  // payload start of the open section
  std::string bytes_;         // header + table (zeroed) + payloads so far
};

/// Zero-copy read view of a parsed frame. Borrows the underlying bytes:
/// valid only while they live (a spill-file mmap, an RPC payload string).
class FrameView {
 public:
  /// Validates structure and, unless `verify_hash` is false, the content
  /// hash. Spill readback and RPC receipt both verify; skip only when the
  /// same bytes were verified moments ago.
  static Result<FrameView> Parse(const char* data, size_t size,
                                 bool verify_hash = true);

  uint32_t record_count() const { return record_count_; }
  uint64_t content_hash() const { return content_hash_; }
  int num_sections() const { return static_cast<int>(sections_.size()); }
  const SectionDesc& section(int i) const { return sections_[i].desc; }
  const char* section_data(int i) const { return sections_[i].data; }

 private:
  struct Section {
    SectionDesc desc;
    const char* data = nullptr;
  };

  uint32_t record_count_ = 0;
  uint64_t content_hash_ = 0;
  std::vector<Section> sections_;
};

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_CHUNK_FRAME_H_
