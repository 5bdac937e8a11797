#ifndef SPANGLE_CODEC_FILE_IO_H_
#define SPANGLE_CODEC_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace spangle {
namespace codec {

/// Reads the whole file into an owned string.
Result<std::string> ReadWholeFile(const std::string& path);

/// Writes `size` bytes to `path`, truncating; returns the byte count.
Result<uint64_t> WriteWholeFile(const char* data, size_t size,
                                const std::string& path);
Result<uint64_t> WriteWholeFile(const std::string& bytes,
                                const std::string& path);

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_FILE_IO_H_
