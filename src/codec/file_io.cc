#include "codec/file_io.h"

#include <fstream>

namespace spangle {
namespace codec {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (size > 0 && !in.read(bytes.data(), size)) {
    return Status::IOError("short read from " + path);
  }
  return bytes;
}

Result<uint64_t> WriteWholeFile(const char* data, size_t size,
                                const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create " + path);
  out.write(data, static_cast<std::streamsize>(size));
  // A small write sits in the stream buffer until close; a full disk
  // (ENOSPC, EFBIG) only shows there, so close before judging.
  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  return static_cast<uint64_t>(size);
}

Result<uint64_t> WriteWholeFile(const std::string& bytes,
                                const std::string& path) {
  return WriteWholeFile(bytes.data(), bytes.size(), path);
}

}  // namespace codec
}  // namespace spangle
