#ifndef SPANGLE_CODEC_FRAME_FILE_H_
#define SPANGLE_CODEC_FRAME_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "codec/columnar.h"
#include "codec/file_io.h"
#include "common/result.h"

namespace spangle {
namespace codec {

/// Spill files ARE chunk frames: one frame per file, identical bytes to
/// the shuffle wire format, so a spilled partition and a shipped
/// partition have the same content address.

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
  auto bytes = ReadWholeFile(path);
  SPANGLE_RETURN_NOT_OK(bytes.status());
  return DecodePartitionFrame<T>(bytes->data(), bytes->size());
}

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_FRAME_FILE_H_
