#include "net/message.h"

#include <algorithm>
#include <cstring>

namespace spangle {
namespace net {

namespace {

// Little-endian field writers/readers. The reader is bounds-checked and
// Status-returning: message payloads arrive from another process, so a
// short or corrupt buffer must surface as an error, never UB or a CHECK.

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutBytes(const std::string& v, std::string* out) {
  PutU32(static_cast<uint32_t>(v.size()), out);
  out->append(v);
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  // spangle-lint: untrusted
  Status ReadU8(uint8_t* v) {
    SPANGLE_RETURN_NOT_OK(Need(1));
    *v = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return Status::OK();
  }

  // spangle-lint: untrusted
  Status ReadU32(uint32_t* v) {
    SPANGLE_RETURN_NOT_OK(Need(4));
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    *v = out;
    pos_ += 4;
    return Status::OK();
  }

  // spangle-lint: untrusted
  Status ReadU64(uint64_t* v) {
    SPANGLE_RETURN_NOT_OK(Need(8));
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    *v = out;
    pos_ += 8;
    return Status::OK();
  }

  // spangle-lint: untrusted
  Status ReadI32(int32_t* v) {
    uint32_t raw = 0;
    SPANGLE_RETURN_NOT_OK(ReadU32(&raw));
    *v = static_cast<int32_t>(raw);
    return Status::OK();
  }

  // spangle-lint: untrusted
  Status ReadBool(bool* v) {
    uint8_t raw = 0;
    SPANGLE_RETURN_NOT_OK(ReadU8(&raw));
    if (raw > 1) {
      return Status::InvalidArgument("malformed message: bool byte " +
                                     std::to_string(raw));
    }
    *v = raw != 0;
    return Status::OK();
  }

  /// A length-prefixed byte field, located rather than copied.
  // spangle-lint: untrusted
  Status ReadSlice(PayloadSlice* v) {
    uint32_t n = 0;
    SPANGLE_RETURN_NOT_OK(ReadU32(&n));
    SPANGLE_RETURN_NOT_OK(Need(n));
    *v = PayloadSlice{pos_, n};
    pos_ += n;
    return Status::OK();
  }

  // spangle-lint: untrusted
  Status ReadBytes(std::string* v) {
    PayloadSlice slice;
    SPANGLE_RETURN_NOT_OK(ReadSlice(&slice));
    v->assign(data_ + slice.offset, slice.size);
    return Status::OK();
  }

  /// Strict decoders reject trailing bytes: a framing bug that splices
  /// two payloads together must not half-parse as success.
  // spangle-lint: untrusted
  Status Done() const {
    if (pos_ != size_) {
      return Status::InvalidArgument(
          "malformed message: " + std::to_string(size_ - pos_) +
          " trailing byte(s)");
    }
    return Status::OK();
  }

 private:
  // spangle-lint: untrusted
  Status Need(size_t n) const {
    if (size_ - pos_ < n) {
      return Status::InvalidArgument("malformed message: truncated (need " +
                                     std::to_string(n) + " bytes at offset " +
                                     std::to_string(pos_) + " of " +
                                     std::to_string(size_) + ")");
    }
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutTrace(const TraceHeader& t, std::string* out) {
  PutU64(t.trace_id, out);
  PutU64(t.span_id, out);
  PutU64(t.parent_span_id, out);
}

// spangle-lint: untrusted
Status ReadTrace(Reader* r, TraceHeader* t) {
  SPANGLE_RETURN_NOT_OK(r->ReadU64(&t->trace_id));
  SPANGLE_RETURN_NOT_OK(r->ReadU64(&t->span_id));
  SPANGLE_RETURN_NOT_OK(r->ReadU64(&t->parent_span_id));
  return Status::OK();
}

}  // namespace

bool IsValidMessageType(uint8_t raw) {
  return raw == static_cast<uint8_t>(MessageType::kError) ||
         (raw >= static_cast<uint8_t>(MessageType::kPutBlockRequest) &&
          raw <= static_cast<uint8_t>(MessageType::kStatsResponse));
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kError:
      return "Error";
    case MessageType::kPutBlockRequest:
      return "PutBlockRequest";
    case MessageType::kPutBlockResponse:
      return "PutBlockResponse";
    case MessageType::kFetchBlockRequest:
      return "FetchBlockRequest";
    case MessageType::kFetchBlockResponse:
      return "FetchBlockResponse";
    case MessageType::kProbeBlockRequest:
      return "ProbeBlockRequest";
    case MessageType::kProbeBlockResponse:
      return "ProbeBlockResponse";
    case MessageType::kHeartbeatRequest:
      return "HeartbeatRequest";
    case MessageType::kHeartbeatResponse:
      return "HeartbeatResponse";
    case MessageType::kShutdownRequest:
      return "ShutdownRequest";
    case MessageType::kShutdownResponse:
      return "ShutdownResponse";
    case MessageType::kStatsRequest:
      return "StatsRequest";
    case MessageType::kStatsResponse:
      return "StatsResponse";
  }
  return "unknown";
}

ErrorResponse ErrorResponse::FromStatus(const Status& status) {
  ErrorResponse e;
  e.code = static_cast<uint8_t>(status.code());
  e.message = status.ok() ? "" : status.message();
  return e;
}

// spangle-lint: untrusted — `code` came off the wire.
Status ErrorResponse::ToStatus() const {
  // An OK code inside an error frame is itself a protocol violation.
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal("peer sent error frame with bad code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), message);
}

void ErrorResponse::AppendTo(std::string* out) const {
  PutU8(code, out);
  PutBytes(message, out);
}

// spangle-lint: untrusted
Result<ErrorResponse> ErrorResponse::Parse(const char* data, size_t size) {
  Reader r(data, size);
  ErrorResponse m;
  SPANGLE_RETURN_NOT_OK(r.ReadU8(&m.code));
  SPANGLE_RETURN_NOT_OK(r.ReadBytes(&m.message));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void PutBlockRequest::AppendHead(size_t bytes_size, std::string* out) const {
  PutU64(node, out);
  PutI32(partition, out);
  PutU32(static_cast<uint32_t>(bytes_size), out);
}

void PutBlockRequest::AppendTail(std::string* out) const {
  PutU64(content_hash, out);
  PutTrace(trace, out);
}

void PutBlockRequest::AppendTo(std::string* out) const {
  AppendHead(bytes.size(), out);
  out->append(bytes);
  AppendTail(out);
}

// spangle-lint: untrusted
Result<PutBlockRequest> PutBlockRequest::Parse(const char* data,
                                               size_t size) {
  auto view = PutBlockRequestView::Parse(data, size);
  SPANGLE_RETURN_NOT_OK(view.status());
  PutBlockRequest m;
  m.node = view->node;
  m.partition = view->partition;
  m.bytes.assign(data + view->bytes.offset, view->bytes.size);
  m.content_hash = view->content_hash;
  m.trace = view->trace;
  return m;
}

// spangle-lint: untrusted
Result<PutBlockRequestView> PutBlockRequestView::Parse(const char* data,
                                                       size_t size) {
  Reader r(data, size);
  PutBlockRequestView m;
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.node));
  SPANGLE_RETURN_NOT_OK(r.ReadI32(&m.partition));
  SPANGLE_RETURN_NOT_OK(r.ReadSlice(&m.bytes));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.content_hash));
  SPANGLE_RETURN_NOT_OK(ReadTrace(&r, &m.trace));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void PutBlockResponse::AppendTo(std::string* out) const {
  PutU8(deduped ? 1 : 0, out);
}

// spangle-lint: untrusted
Result<PutBlockResponse> PutBlockResponse::Parse(const char* data,
                                                 size_t size) {
  Reader r(data, size);
  PutBlockResponse m;
  SPANGLE_RETURN_NOT_OK(r.ReadBool(&m.deduped));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void FetchBlockRequest::AppendTo(std::string* out) const {
  PutU64(node, out);
  PutI32(partition, out);
  PutTrace(trace, out);
}

// spangle-lint: untrusted
Result<FetchBlockRequest> FetchBlockRequest::Parse(const char* data,
                                                   size_t size) {
  Reader r(data, size);
  FetchBlockRequest m;
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.node));
  SPANGLE_RETURN_NOT_OK(r.ReadI32(&m.partition));
  SPANGLE_RETURN_NOT_OK(ReadTrace(&r, &m.trace));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void FetchBlockResponse::AppendHead(size_t bytes_size,
                                    std::string* out) const {
  PutU8(found ? 1 : 0, out);
  PutU32(static_cast<uint32_t>(bytes_size), out);
}

void FetchBlockResponse::AppendTail(std::string* out) const {
  PutU64(content_hash, out);
}

void FetchBlockResponse::AppendTo(std::string* out) const {
  AppendHead(bytes.size(), out);
  out->append(bytes);
  AppendTail(out);
}

// spangle-lint: untrusted
Result<FetchBlockResponse> FetchBlockResponse::Parse(const char* data,
                                                     size_t size) {
  auto view = FetchBlockResponseView::Parse(data, size);
  SPANGLE_RETURN_NOT_OK(view.status());
  FetchBlockResponse m;
  m.found = view->found;
  m.bytes.assign(data + view->bytes.offset, view->bytes.size);
  m.content_hash = view->content_hash;
  return m;
}

// spangle-lint: untrusted
Result<FetchBlockResponseView> FetchBlockResponseView::Parse(const char* data,
                                                             size_t size) {
  Reader r(data, size);
  FetchBlockResponseView m;
  SPANGLE_RETURN_NOT_OK(r.ReadBool(&m.found));
  SPANGLE_RETURN_NOT_OK(r.ReadSlice(&m.bytes));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.content_hash));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void ProbeBlockRequest::AppendTo(std::string* out) const {
  PutU64(node, out);
  PutI32(partition, out);
}

// spangle-lint: untrusted
Result<ProbeBlockRequest> ProbeBlockRequest::Parse(const char* data,
                                                   size_t size) {
  Reader r(data, size);
  ProbeBlockRequest m;
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.node));
  SPANGLE_RETURN_NOT_OK(r.ReadI32(&m.partition));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void ProbeBlockResponse::AppendTo(std::string* out) const {
  PutU8(found ? 1 : 0, out);
}

// spangle-lint: untrusted
Result<ProbeBlockResponse> ProbeBlockResponse::Parse(const char* data,
                                                     size_t size) {
  Reader r(data, size);
  ProbeBlockResponse m;
  SPANGLE_RETURN_NOT_OK(r.ReadBool(&m.found));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void HeartbeatRequest::AppendTo(std::string* out) const { PutU64(seq, out); }

// spangle-lint: untrusted
Result<HeartbeatRequest> HeartbeatRequest::Parse(const char* data,
                                                 size_t size) {
  Reader r(data, size);
  HeartbeatRequest m;
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.seq));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void HeartbeatResponse::AppendTo(std::string* out) const {
  PutU64(seq, out);
  PutU64(blocks_held, out);
  PutU64(bytes_in_memory, out);
  PutU64(now_us, out);
}

// spangle-lint: untrusted
Result<HeartbeatResponse> HeartbeatResponse::Parse(const char* data,
                                                   size_t size) {
  Reader r(data, size);
  HeartbeatResponse m;
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.seq));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.blocks_held));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.bytes_in_memory));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.now_us));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void ShutdownRequest::AppendTo(std::string* out) const { (void)out; }

// spangle-lint: untrusted
Result<ShutdownRequest> ShutdownRequest::Parse(const char* data,
                                               size_t size) {
  Reader r(data, size);
  SPANGLE_RETURN_NOT_OK(r.Done());
  return ShutdownRequest{};
}

void ShutdownResponse::AppendTo(std::string* out) const { (void)out; }

// spangle-lint: untrusted
Result<ShutdownResponse> ShutdownResponse::Parse(const char* data,
                                                 size_t size) {
  Reader r(data, size);
  SPANGLE_RETURN_NOT_OK(r.Done());
  return ShutdownResponse{};
}

void StatsRequest::AppendTo(std::string* out) const {
  PutU8(drain_spans ? 1 : 0, out);
}

// spangle-lint: untrusted
Result<StatsRequest> StatsRequest::Parse(const char* data, size_t size) {
  Reader r(data, size);
  StatsRequest m;
  SPANGLE_RETURN_NOT_OK(r.ReadBool(&m.drain_spans));
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

void StatsResponse::AppendTo(std::string* out) const {
  PutU64(now_us, out);
  PutU64(blocks_held, out);
  PutU64(bytes_in_memory, out);
  PutU64(spans_dropped, out);
  PutU32(static_cast<uint32_t>(metrics.size()), out);
  for (const StatsMetric& m : metrics) {
    PutBytes(m.name, out);
    PutU8(m.kind, out);
    PutU64(m.value, out);
  }
  PutU32(static_cast<uint32_t>(spans.size()), out);
  for (const StatsSpan& s : spans) {
    PutU64(s.trace_id, out);
    PutU64(s.span_id, out);
    PutU64(s.parent_span_id, out);
    PutBytes(s.name, out);
    PutU64(s.start_us, out);
    PutU64(s.duration_us, out);
  }
}

// spangle-lint: untrusted
Result<StatsResponse> StatsResponse::Parse(const char* data, size_t size) {
  Reader r(data, size);
  StatsResponse m;
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.now_us));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.blocks_held));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.bytes_in_memory));
  SPANGLE_RETURN_NOT_OK(r.ReadU64(&m.spans_dropped));
  uint32_t num_metrics = 0;
  SPANGLE_RETURN_NOT_OK(r.ReadU32(&num_metrics));
  // Each entry occupies >= 13 bytes on the wire, so a hostile count is
  // caught by the first truncated read — no preflight allocation risk
  // beyond one element at a time.
  m.metrics.reserve(std::min<uint32_t>(num_metrics, 1024));
  for (uint32_t i = 0; i < num_metrics; ++i) {
    StatsMetric e;
    SPANGLE_RETURN_NOT_OK(r.ReadBytes(&e.name));
    SPANGLE_RETURN_NOT_OK(r.ReadU8(&e.kind));
    SPANGLE_RETURN_NOT_OK(r.ReadU64(&e.value));
    m.metrics.push_back(std::move(e));
  }
  uint32_t num_spans = 0;
  SPANGLE_RETURN_NOT_OK(r.ReadU32(&num_spans));
  m.spans.reserve(std::min<uint32_t>(num_spans, 1024));
  for (uint32_t i = 0; i < num_spans; ++i) {
    StatsSpan s;
    SPANGLE_RETURN_NOT_OK(r.ReadU64(&s.trace_id));
    SPANGLE_RETURN_NOT_OK(r.ReadU64(&s.span_id));
    SPANGLE_RETURN_NOT_OK(r.ReadU64(&s.parent_span_id));
    SPANGLE_RETURN_NOT_OK(r.ReadBytes(&s.name));
    SPANGLE_RETURN_NOT_OK(r.ReadU64(&s.start_us));
    SPANGLE_RETURN_NOT_OK(r.ReadU64(&s.duration_us));
    m.spans.push_back(std::move(s));
  }
  SPANGLE_RETURN_NOT_OK(r.Done());
  return m;
}

}  // namespace net
}  // namespace spangle
