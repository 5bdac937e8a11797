#ifndef SPANGLE_TOOLS_FUZZ_MESSAGE_DIFFERENTIAL_H_
#define SPANGLE_TOOLS_FUZZ_MESSAGE_DIFFERENTIAL_H_

// Differential check between the copying message decoders and their
// in-place twins: PutBlockRequestView::Parse and
// FetchBlockResponseView::Parse must accept exactly the payloads that
// PutBlockRequest::Parse and FetchBlockResponse::Parse accept, and yield
// the same fields, the byte field located at the bytes the copying
// parser copied. fuzz_messages runs it on every input under libFuzzer;
// tests/net/message_differential_test.cc runs it over the checked-in
// seed corpus plus truncation sweeps, so a GCC build checks it too.

#include <cstddef>
#include <cstring>
#include <string>

#include "net/message.h"

namespace spangle {
namespace net {

inline bool SameTrace(const TraceHeader& a, const TraceHeader& b) {
  return a.trace_id == b.trace_id && a.span_id == b.span_id &&
         a.parent_span_id == b.parent_span_id;
}

/// True when the located field holds exactly `copied`.
inline bool SameBytes(const char* data, size_t size, PayloadSlice slice,
                      const std::string& copied) {
  return slice.offset <= size && slice.size <= size - slice.offset &&
         slice.size == copied.size() &&
         std::memcmp(data + slice.offset, copied.data(), copied.size()) == 0;
}

/// Returns an empty string when both PutBlockRequest decoders agree on
/// `data`, else what differed.
inline std::string DiffPutBlockRequest(const char* data, size_t size) {
  auto copied = PutBlockRequest::Parse(data, size);
  auto view = PutBlockRequestView::Parse(data, size);
  if (copied.ok() != view.ok()) return "PutBlockRequest: accept differs";
  if (!copied.ok()) return "";
  if (copied->node != view->node || copied->partition != view->partition ||
      copied->content_hash != view->content_hash ||
      !SameTrace(copied->trace, view->trace)) {
    return "PutBlockRequest: fields differ";
  }
  if (!SameBytes(data, size, view->bytes, copied->bytes)) {
    return "PutBlockRequest: bytes differ";
  }
  return "";
}

/// Same for the FetchBlockResponse decoders.
inline std::string DiffFetchBlockResponse(const char* data, size_t size) {
  auto copied = FetchBlockResponse::Parse(data, size);
  auto view = FetchBlockResponseView::Parse(data, size);
  if (copied.ok() != view.ok()) return "FetchBlockResponse: accept differs";
  if (!copied.ok()) return "";
  if (copied->found != view->found ||
      copied->content_hash != view->content_hash) {
    return "FetchBlockResponse: fields differ";
  }
  if (!SameBytes(data, size, view->bytes, copied->bytes)) {
    return "FetchBlockResponse: bytes differ";
  }
  return "";
}

/// Both checks on one payload.
inline std::string DiffInPlaceParsers(const char* data, size_t size) {
  std::string diff = DiffPutBlockRequest(data, size);
  if (diff.empty()) diff = DiffFetchBlockResponse(data, size);
  return diff;
}

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_TOOLS_FUZZ_MESSAGE_DIFFERENTIAL_H_
