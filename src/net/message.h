#ifndef SPANGLE_NET_MESSAGE_H_
#define SPANGLE_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace spangle {
namespace net {

/// Wire message kinds. Every RPC is one request frame answered by exactly
/// one response frame; kError may answer any request (it carries a Status
/// the client re-raises). Values are part of the wire format — append
/// only, never renumber. Values 2 and 3 are retired (they carried a
/// per-task dispatch that no longer exists) and are never reused.
enum class MessageType : uint8_t {
  kError = 1,
  kPutBlockRequest = 4,
  kPutBlockResponse = 5,
  kFetchBlockRequest = 6,
  kFetchBlockResponse = 7,
  kProbeBlockRequest = 8,
  kProbeBlockResponse = 9,
  kHeartbeatRequest = 10,
  kHeartbeatResponse = 11,
  kShutdownRequest = 12,
  kShutdownResponse = 13,
  kStatsRequest = 14,
  kStatsResponse = 15,
};

/// True when `raw` names a defined MessageType; the frame decoder rejects
/// frames whose type byte fails this, so garbage streams die early.
bool IsValidMessageType(uint8_t raw);

/// Human-readable name ("PutBlockRequest"), for diagnostics.
const char* MessageTypeName(MessageType type);

// Message payload encodings are flat little-endian fields in declaration
// order; strings/bytes carry a uint32 length prefix. Every struct has
//   void AppendTo(std::string* out) const;          // encode
//   static Result<T> Parse(const char* d, size_t n) // strict decode
// Parse is bounds-checked and rejects trailing bytes — malformed input
// is a Status, never a crash, because the bytes cross a process boundary
// (unlike spill files, which are trusted engine-local state).

/// Where a byte field sits inside a received payload. The in-place
/// parsers (PutBlockRequestView, FetchBlockResponseView) report this
/// instead of copying the field out, so a multi-megabyte frame is read
/// where it landed.
struct PayloadSlice {
  size_t offset = 0;
  size_t size = 0;
};

/// A received payload kept whole, exposing one byte field of it: how the
/// daemon holds a stored frame and the driver a fetched one, without
/// copying the frame out of the message it arrived in.
class SlicedPayload {
 public:
  SlicedPayload(std::string payload, PayloadSlice slice)
      : payload_(std::move(payload)), slice_(slice) {}

  const char* data() const { return payload_.data() + slice_.offset; }
  size_t size() const { return slice_.size; }
  std::string_view view() const { return {data(), size()}; }

 private:
  std::string payload_;
  PayloadSlice slice_;
};

/// Failure response: a serialized Status. Sent in place of the expected
/// response type when the server-side handler fails.
struct ErrorResponse {
  static constexpr MessageType kType = MessageType::kError;

  uint8_t code = 0;  // StatusCode, validated on parse
  std::string message;

  static ErrorResponse FromStatus(const Status& status);
  Status ToStatus() const;

  void AppendTo(std::string* out) const;
  static Result<ErrorResponse> Parse(const char* data, size_t size);
};

/// Trace context carried on data-plane requests (DESIGN.md §14). All
/// zero means "not traced": the daemon records no span. The daemon's
/// serve span adopts `trace_id` and parents itself under `span_id`, so a
/// merged Chrome trace can tie the driver's client span to the daemon's
/// work via a flow event keyed on `span_id`.
struct TraceHeader {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// Driver -> executor: store one encoded shuffle partition on the daemon
/// that owns it (partition % num_executors). `bytes` is a chunk frame
/// carried verbatim (never re-encoded at the RPC boundary); the sender's
/// `content_hash` lets the daemon validate the frame on receipt — a
/// mismatch means the bytes were corrupted in flight and the store is
/// refused (the driver retries). 0 = unhashed, validation skipped.
struct PutBlockRequest {
  static constexpr MessageType kType = MessageType::kPutBlockRequest;

  uint64_t node = 0;
  int32_t partition = 0;
  std::string bytes;  // chunk-frame encoding of the partition
  uint64_t content_hash = 0;
  TraceHeader trace;

  void AppendTo(std::string* out) const;
  static Result<PutBlockRequest> Parse(const char* data, size_t size);

  /// The encoding split around `bytes`, for a gathered send of a frame
  /// the caller holds elsewhere: AppendHead writes the fields before it
  /// (ending in the length prefix of a `bytes_size`-byte field),
  /// AppendTail those after it. AppendTo is head + bytes + tail.
  void AppendHead(size_t bytes_size, std::string* out) const;
  void AppendTail(std::string* out) const;
};

/// PutBlockRequest decoded in place: `bytes` is located in the payload,
/// not copied. Accepts exactly the payloads PutBlockRequest::Parse
/// accepts — that Parse is this one plus the copy.
struct PutBlockRequestView {
  uint64_t node = 0;
  int32_t partition = 0;
  PayloadSlice bytes;
  uint64_t content_hash = 0;
  TraceHeader trace;

  static Result<PutBlockRequestView> Parse(const char* data, size_t size);
};

/// deduped=true: the daemon already held an identical payload (same
/// block, same content hash) and kept it — the sender's bytes were
/// discarded. The driver counts these as shuffle_block_dedup_hits.
struct PutBlockResponse {
  static constexpr MessageType kType = MessageType::kPutBlockResponse;

  bool deduped = false;

  void AppendTo(std::string* out) const;
  static Result<PutBlockResponse> Parse(const char* data, size_t size);
};

struct FetchBlockRequest {
  static constexpr MessageType kType = MessageType::kFetchBlockRequest;

  uint64_t node = 0;
  int32_t partition = 0;
  TraceHeader trace;

  void AppendTo(std::string* out) const;
  static Result<FetchBlockRequest> Parse(const char* data, size_t size);
};

/// found=false is a normal response (the block was lost with a daemon
/// restart, not a protocol failure): the driver converts it into
/// ShuffleBlockLostError and lineage re-plans. `content_hash` echoes the
/// hash the block was stored under (0 = unhashed); the driver re-hashes
/// the received frame and treats a mismatch — wire corruption — as a
/// lost block, which is retryable, instead of crashing on bad bytes.
struct FetchBlockResponse {
  static constexpr MessageType kType = MessageType::kFetchBlockResponse;

  bool found = false;
  std::string bytes;
  uint64_t content_hash = 0;

  void AppendTo(std::string* out) const;
  static Result<FetchBlockResponse> Parse(const char* data, size_t size);

  /// The encoding split around `bytes`, as for PutBlockRequest: the
  /// daemon sends a stored frame between the two without copying it.
  void AppendHead(size_t bytes_size, std::string* out) const;
  void AppendTail(std::string* out) const;
};

/// FetchBlockResponse decoded in place; accepts exactly the payloads
/// FetchBlockResponse::Parse accepts.
struct FetchBlockResponseView {
  bool found = false;
  PayloadSlice bytes;
  uint64_t content_hash = 0;

  static Result<FetchBlockResponseView> Parse(const char* data, size_t size);
};

struct ProbeBlockRequest {
  static constexpr MessageType kType = MessageType::kProbeBlockRequest;

  uint64_t node = 0;
  int32_t partition = 0;

  void AppendTo(std::string* out) const;
  static Result<ProbeBlockRequest> Parse(const char* data, size_t size);
};

struct ProbeBlockResponse {
  static constexpr MessageType kType = MessageType::kProbeBlockResponse;

  bool found = false;

  void AppendTo(std::string* out) const;
  static Result<ProbeBlockResponse> Parse(const char* data, size_t size);
};

struct HeartbeatRequest {
  static constexpr MessageType kType = MessageType::kHeartbeatRequest;

  uint64_t seq = 0;

  void AppendTo(std::string* out) const;
  static Result<HeartbeatRequest> Parse(const char* data, size_t size);
};

/// `now_us` is the daemon's monotonic clock (microseconds since daemon
/// start) sampled while building the response. The driver brackets the
/// RPC with its own clock and estimates the daemon's clock offset as
/// now_us - (t_send + t_recv)/2 — the RTT-midpoint estimator — so span
/// timestamps from different processes can be aligned on one timeline.
struct HeartbeatResponse {
  static constexpr MessageType kType = MessageType::kHeartbeatResponse;

  uint64_t seq = 0;
  uint64_t blocks_held = 0;
  uint64_t bytes_in_memory = 0;
  uint64_t now_us = 0;

  void AppendTo(std::string* out) const;
  static Result<HeartbeatResponse> Parse(const char* data, size_t size);
};

struct ShutdownRequest {
  static constexpr MessageType kType = MessageType::kShutdownRequest;

  void AppendTo(std::string* out) const;
  static Result<ShutdownRequest> Parse(const char* data, size_t size);
};

struct ShutdownResponse {
  static constexpr MessageType kType = MessageType::kShutdownResponse;

  void AppendTo(std::string* out) const;
  static Result<ShutdownResponse> Parse(const char* data, size_t size);
};

/// Driver -> executor: pull the daemon's metrics snapshot and (when
/// `drain_spans`) the contents of its span ring buffer. Draining is
/// destructive on the daemon — the driver accumulates drained spans, so
/// spans survive a later SIGKILL of the daemon.
struct StatsRequest {
  static constexpr MessageType kType = MessageType::kStatsRequest;

  bool drain_spans = true;

  void AppendTo(std::string* out) const;
  static Result<StatsRequest> Parse(const char* data, size_t size);
};

/// One scalar sample from the daemon's EngineMetrics registry. `kind`
/// mirrors engine MetricKind (0 counter, 1 gauge, 2 timer); histograms
/// are flattened into `<name>_count` / `<name>_sum` counter entries.
struct StatsMetric {
  std::string name;
  uint8_t kind = 0;
  uint64_t value = 0;
};

/// One span drained from the daemon's ring. Timestamps are on the
/// daemon's own epoch (its `now_us` clock); the driver shifts them by
/// the estimated clock offset when merging traces.
struct StatsSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
};

struct StatsResponse {
  static constexpr MessageType kType = MessageType::kStatsResponse;

  uint64_t now_us = 0;  // daemon clock, same epoch as span timestamps
  uint64_t blocks_held = 0;
  uint64_t bytes_in_memory = 0;
  uint64_t spans_dropped = 0;  // ring overflow count since daemon start
  std::vector<StatsMetric> metrics;
  std::vector<StatsSpan> spans;

  void AppendTo(std::string* out) const;
  static Result<StatsResponse> Parse(const char* data, size_t size);
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_MESSAGE_H_
