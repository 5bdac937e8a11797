#ifndef SPANGLE_CODEC_FRAME_FILE_H_
#define SPANGLE_CODEC_FRAME_FILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "codec/columnar.h"
#include "codec/frame_buffer.h"
#include "codec/mmap_file.h"
#include "common/result.h"

namespace spangle {
namespace codec {

/// Spill files ARE chunk frames: one frame per file, identical bytes to
/// the shuffle wire format, so a spilled partition and a shipped
/// partition have the same content address. Readback maps the file and
/// decodes straight from the mapping; when mmap is unavailable it falls
/// back to a streaming read of the same bytes.

/// Reads a frame file's raw bytes, preferring a zero-copy mapping.
inline Result<FrameBuffer> ReadFrameFile(const std::string& path) {
  auto mapped = MappedFile::Map(path);
  if (mapped.ok()) return FrameBuffer(std::move(*mapped));
  auto streamed = ReadWholeFile(path);
  SPANGLE_RETURN_NOT_OK(streamed.status());
  return FrameBuffer(std::move(*streamed));
}

/// Writes one partition to `path` as a chunk frame; returns bytes
/// written, or the I/O error.
template <typename T>
Result<uint64_t> WritePartitionFile(const std::vector<T>& records,
                                    const std::string& path) {
  const EncodedFrame frame = EncodePartitionFrame(records);
  return WriteWholeFile(frame.bytes, path);
}

/// Reads a partition back from a frame file written by WritePartitionFile
/// (or any stored frame — spill and wire bytes are interchangeable). A
/// missing, unreadable or corrupt file is an error, not a crash: the
/// block store drops such a block as lost and lineage rebuilds it.
template <typename T>
Result<std::vector<T>> ReadPartitionFile(const std::string& path) {
  auto buf = ReadFrameFile(path);
  SPANGLE_RETURN_NOT_OK(buf.status());
  return DecodePartitionFrame<T>(buf->data(), buf->size());
}

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_FRAME_FILE_H_
