// Wire-format round-trip suite for the net layer: every RPC message and
// the frame codec must survive encode -> split-into-arbitrary-chunks ->
// Connection::Recv bit-exactly, and every malformed input must surface
// as a Status (never a crash) — the bytes cross a process boundary.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/connection.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/socket.h"

namespace spangle {
namespace net {
namespace {

// ---------------------------------------------------------------------
// Message round-trips.

template <typename T>
T RoundTrip(const T& msg) {
  std::string bytes;
  msg.AppendTo(&bytes);
  auto parsed = T::Parse(bytes.data(), bytes.size());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

TEST(MessageCodec, ErrorResponseRoundTrip) {
  ErrorResponse e = ErrorResponse::FromStatus(
      Status::IOError("connection reset while fetching block"));
  const ErrorResponse got = RoundTrip(e);
  EXPECT_EQ(got.code, e.code);
  EXPECT_EQ(got.message, e.message);
  const Status back = got.ToStatus();
  EXPECT_EQ(back.code(), StatusCode::kIOError);
}

TEST(MessageCodec, ErrorResponseRejectsBogusCode) {
  ErrorResponse e;
  e.code = 200;  // not a StatusCode
  e.message = "??";
  std::string bytes;
  e.AppendTo(&bytes);
  auto parsed = ErrorResponse::Parse(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToStatus().code(), StatusCode::kInternal);
}

TEST(MessageCodec, BlockMessagesRoundTrip) {
  PutBlockRequest put;
  put.node = 0xdeadbeefcafef00dULL;
  put.partition = 42;
  put.bytes = std::string(100000, '\x7f');
  put.content_hash = 0x0123456789abcdefULL;
  const PutBlockRequest got = RoundTrip(put);
  EXPECT_EQ(got.node, put.node);
  EXPECT_EQ(got.partition, 42);
  EXPECT_EQ(got.bytes, put.bytes);
  EXPECT_EQ(got.content_hash, put.content_hash);
  EXPECT_FALSE(RoundTrip(PutBlockResponse()).deduped);
  PutBlockResponse deduped;
  deduped.deduped = true;
  EXPECT_TRUE(RoundTrip(deduped).deduped);

  FetchBlockRequest fetch;
  fetch.node = 3;
  fetch.partition = -1;  // negative survives (int32 two's complement)
  EXPECT_EQ(RoundTrip(fetch).partition, -1);

  FetchBlockResponse found;
  found.found = true;
  found.bytes = "block-bytes";
  found.content_hash = 0xfeedfacefeedfaceULL;
  EXPECT_TRUE(RoundTrip(found).found);
  EXPECT_EQ(RoundTrip(found).bytes, "block-bytes");
  EXPECT_EQ(RoundTrip(found).content_hash, found.content_hash);
  FetchBlockResponse missing;
  EXPECT_FALSE(RoundTrip(missing).found);
  EXPECT_EQ(RoundTrip(missing).content_hash, 0u);

  ProbeBlockRequest probe;
  probe.node = 9;
  probe.partition = 1;
  EXPECT_EQ(RoundTrip(probe).node, 9u);
  ProbeBlockResponse probed;
  probed.found = true;
  EXPECT_TRUE(RoundTrip(probed).found);
}

TEST(MessageCodec, HeartbeatAndShutdownRoundTrip) {
  HeartbeatRequest hb;
  hb.seq = UINT64_MAX;
  EXPECT_EQ(RoundTrip(hb).seq, UINT64_MAX);

  HeartbeatResponse hbr;
  hbr.seq = 12;
  hbr.blocks_held = 34;
  hbr.bytes_in_memory = 56;
  const HeartbeatResponse got = RoundTrip(hbr);
  EXPECT_EQ(got.seq, 12u);
  EXPECT_EQ(got.blocks_held, 34u);
  EXPECT_EQ(got.bytes_in_memory, 56u);

  RoundTrip(ShutdownRequest());
  RoundTrip(ShutdownResponse());
}

TEST(MessageCodec, TraceHeaderRoundTripsOnDataPlaneRequests) {
  PutBlockRequest put;
  put.bytes = "b";
  put.trace.trace_id = 0x1111222233334444ULL;
  put.trace.span_id = 0x5555666677778888ULL;
  put.trace.parent_span_id = 7;
  const PutBlockRequest p = RoundTrip(put);
  EXPECT_EQ(p.trace.trace_id, put.trace.trace_id);
  EXPECT_EQ(p.trace.span_id, put.trace.span_id);
  EXPECT_EQ(p.trace.parent_span_id, 7u);

  FetchBlockRequest fetch;
  fetch.trace.trace_id = 11;
  fetch.trace.parent_span_id = 12;
  EXPECT_EQ(RoundTrip(fetch).trace.trace_id, 11u);
  EXPECT_EQ(RoundTrip(fetch).trace.parent_span_id, 12u);

  // Default (untraced) headers survive as all-zero.
  const FetchBlockRequest untraced = RoundTrip(FetchBlockRequest());
  EXPECT_EQ(untraced.trace.trace_id, 0u);
  EXPECT_EQ(untraced.trace.span_id, 0u);
}

TEST(MessageCodec, StatsMessagesRoundTrip) {
  StatsRequest req;
  req.drain_spans = false;
  EXPECT_FALSE(RoundTrip(req).drain_spans);
  EXPECT_TRUE(RoundTrip(StatsRequest()).drain_spans);

  StatsResponse resp;
  resp.now_us = 123456789;
  resp.blocks_held = 3;
  resp.bytes_in_memory = 1 << 20;
  resp.spans_dropped = 2;
  resp.metrics.push_back({"tasks_run", 0, 17});
  resp.metrics.push_back({"bytes_cached", 1, 4096});
  StatsSpan span;
  span.trace_id = 42;
  span.span_id = (2ULL << 48) + 5;
  span.parent_span_id = 99;
  span.name = "serve_put";
  span.start_us = 1000;
  span.duration_us = 250;
  resp.spans.push_back(span);
  const StatsResponse got = RoundTrip(resp);
  EXPECT_EQ(got.now_us, resp.now_us);
  EXPECT_EQ(got.blocks_held, 3u);
  EXPECT_EQ(got.bytes_in_memory, resp.bytes_in_memory);
  EXPECT_EQ(got.spans_dropped, 2u);
  ASSERT_EQ(got.metrics.size(), 2u);
  EXPECT_EQ(got.metrics[0].name, "tasks_run");
  EXPECT_EQ(got.metrics[0].kind, 0);
  EXPECT_EQ(got.metrics[0].value, 17u);
  EXPECT_EQ(got.metrics[1].name, "bytes_cached");
  EXPECT_EQ(got.metrics[1].kind, 1);
  ASSERT_EQ(got.spans.size(), 1u);
  EXPECT_EQ(got.spans[0].trace_id, 42u);
  EXPECT_EQ(got.spans[0].span_id, span.span_id);
  EXPECT_EQ(got.spans[0].parent_span_id, 99u);
  EXPECT_EQ(got.spans[0].name, "serve_put");
  EXPECT_EQ(got.spans[0].start_us, 1000u);
  EXPECT_EQ(got.spans[0].duration_us, 250u);

  // Empty response (no metrics, no spans) is legal.
  const StatsResponse empty = RoundTrip(StatsResponse());
  EXPECT_TRUE(empty.metrics.empty());
  EXPECT_TRUE(empty.spans.empty());
}

TEST(MessageCodec, HeartbeatResponseCarriesDaemonClock) {
  HeartbeatResponse hb;
  hb.seq = 5;
  hb.now_us = 0xabcddcba12344321ULL;
  EXPECT_EQ(RoundTrip(hb).now_us, hb.now_us);
}

TEST(MessageCodec, EmptyStringsRoundTrip) {
  PutBlockRequest put;
  put.bytes = "";
  EXPECT_EQ(RoundTrip(put).bytes, "");

  ErrorResponse err;
  err.code = static_cast<uint8_t>(StatusCode::kIOError);
  err.message = "";
  EXPECT_EQ(RoundTrip(err).message, "");

  StatsResponse stats;
  stats.metrics.push_back({"", 0, 1});
  const StatsResponse got = RoundTrip(stats);
  ASSERT_EQ(got.metrics.size(), 1u);
  EXPECT_EQ(got.metrics[0].name, "");
}

// Every truncation point of every message must parse to an error, not
// read out of bounds (ASan/UBSan verify the "not out of bounds" half).
template <typename T>
void ExpectAllTruncationsFail(const T& msg) {
  std::string bytes;
  msg.AppendTo(&bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto parsed = T::Parse(bytes.data(), cut);
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " parsed";
  }
  // Trailing garbage must be rejected too.
  std::string extended = bytes + '\x00';
  EXPECT_FALSE(T::Parse(extended.data(), extended.size()).ok());
}

TEST(MessageCodec, TruncationsAndTrailingBytesFail) {
  ErrorResponse err = ErrorResponse::FromStatus(Status::IOError("xyz"));
  ExpectAllTruncationsFail(err);
  FetchBlockRequest fetch_req;
  fetch_req.node = 3;
  fetch_req.trace.trace_id = 4;
  ExpectAllTruncationsFail(fetch_req);
  PutBlockRequest put;
  put.node = 1;
  put.partition = 2;
  put.bytes = "abcdef";
  put.content_hash = 0x1122334455667788ULL;
  ExpectAllTruncationsFail(put);
  FetchBlockResponse fetch;
  fetch.found = true;
  fetch.bytes = "abc";
  fetch.content_hash = 99;
  ExpectAllTruncationsFail(fetch);
  HeartbeatResponse hb;
  hb.seq = 1;
  ExpectAllTruncationsFail(hb);
}

TEST(MessageCodec, StatsResponseTruncationsFail) {
  StatsResponse resp;
  resp.now_us = 7;
  resp.metrics.push_back({"m", 2, 9});
  StatsSpan span;
  span.trace_id = 1;
  span.name = "serve_fetch";
  resp.spans.push_back(span);
  ExpectAllTruncationsFail(resp);

  // A hostile element count (claims 2^32-1 spans) must fail cleanly on
  // the first truncated element, not allocate or scan past the buffer.
  std::string bytes;
  StatsResponse small;
  small.AppendTo(&bytes);
  // The final u32 is the span count (zero); inflate it.
  bytes[bytes.size() - 1] = '\xff';
  bytes[bytes.size() - 2] = '\xff';
  bytes[bytes.size() - 3] = '\xff';
  bytes[bytes.size() - 4] = '\xff';
  EXPECT_FALSE(StatsResponse::Parse(bytes.data(), bytes.size()).ok());
}

TEST(MessageCodec, BoolFieldRejectsNonBoolByte) {
  FetchBlockResponse resp;
  resp.found = true;
  resp.bytes = "x";
  std::string bytes;
  resp.AppendTo(&bytes);
  bytes[0] = '\x02';  // found byte: only 0/1 are legal
  EXPECT_FALSE(FetchBlockResponse::Parse(bytes.data(), bytes.size()).ok());
}

TEST(MessageCodec, DeclaredLengthPastBufferFails) {
  // A string whose u32 length prefix claims more bytes than the buffer
  // holds must not be believed.
  ErrorResponse resp = ErrorResponse::FromStatus(Status::IOError("abcd"));
  std::string bytes;
  resp.AppendTo(&bytes);
  bytes[1] = '\xff';  // length prefix low byte: now claims 0x000000fb more
  EXPECT_FALSE(ErrorResponse::Parse(bytes.data(), bytes.size()).ok());
}

// ---------------------------------------------------------------------
// Frame codec.

TEST(FrameCodec, HeaderRoundTrip) {
  std::string frame;
  EncodeFrame(MessageType::kHeartbeatRequest, "payload!", &frame);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  auto header = ParseFrameHeader(frame.data());
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, MessageType::kHeartbeatRequest);
  EXPECT_EQ(header->payload_len, 8u);
}

TEST(FrameCodec, BadMagicFails) {
  std::string frame;
  EncodeFrame(MessageType::kHeartbeatRequest, "", &frame);
  frame[0] = 'X';
  EXPECT_FALSE(ParseFrameHeader(frame.data()).ok());
}

TEST(FrameCodec, UnknownTypeFails) {
  std::string frame;
  EncodeFrame(MessageType::kHeartbeatRequest, "", &frame);
  frame[4] = '\x7f';  // not a MessageType
  EXPECT_FALSE(ParseFrameHeader(frame.data()).ok());
}

TEST(FrameCodec, RetiredTypeFails) {
  // Types 2 and 3 carried a per-task dispatch that no longer exists;
  // their bytes stay rejected rather than silently reused.
  for (const char retired : {'\x02', '\x03'}) {
    std::string frame;
    EncodeFrame(MessageType::kHeartbeatRequest, "", &frame);
    frame[4] = retired;
    const auto header = ParseFrameHeader(frame.data());
    ASSERT_FALSE(header.ok());
    EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameCodec, NonzeroReservedFails) {
  std::string frame;
  EncodeFrame(MessageType::kHeartbeatRequest, "", &frame);
  frame[6] = '\x01';
  EXPECT_FALSE(ParseFrameHeader(frame.data()).ok());
}

TEST(FrameCodec, OversizedLengthFails) {
  std::string frame;
  EncodeFrame(MessageType::kHeartbeatRequest, "", &frame);
  // payload_len = 0xffffffff > kMaxFramePayload
  frame[8] = frame[9] = frame[10] = frame[11] = '\xff';
  const auto header = ParseFrameHeader(frame.data());
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------
// Connection::Recv over a socketpair: the receive path reads one header,
// validates it, then reads exactly the declared payload. The far end
// writes raw bytes, so a test controls every byte and every boundary.

struct RawPeer {
  Socket writer;
  Connection reader;
};

RawPeer MakeRawPeer() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket reader(fds[1]);
  // A broken receive path fails the test instead of hanging it.
  EXPECT_TRUE(reader.SetRecvTimeoutMs(10000).ok());
  return RawPeer{Socket(fds[0]), Connection(std::move(reader))};
}

Status WriteRaw(Socket* s, const char* data, size_t n) {
  iovec iov{const_cast<char*>(data), n};
  return s->SendAllv(&iov, 1);
}

TEST(ConnectionRecvTest, PeerClosingOneByteShortIsAnError) {
  std::string frame;
  EncodeFrame(MessageType::kPutBlockRequest, "abcdef", &frame);
  RawPeer peer = MakeRawPeer();
  ASSERT_TRUE(WriteRaw(&peer.writer, frame.data(), frame.size() - 1).ok());
  peer.writer.Close();
  MessageType type = MessageType::kError;
  std::string payload;
  const Status st = peer.reader.Recv(&type, &payload);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

TEST(ConnectionRecvTest, BadMagicIsAnError) {
  std::string frame;
  EncodeFrame(MessageType::kHeartbeatRequest, "", &frame);
  frame[0] = '?';
  RawPeer peer = MakeRawPeer();
  ASSERT_TRUE(WriteRaw(&peer.writer, frame.data(), frame.size()).ok());
  MessageType type = MessageType::kError;
  std::string payload;
  const Status st = peer.reader.Recv(&type, &payload);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// The property test: a stream of every message type, written in random
// chunk sizes, must come back from Recv bit-exactly, frame by frame.
TEST(ConnectionRecvTest, ArbitraryChunkingRoundTrips) {
  // One payload per message type, sizes from empty to ~64KiB.
  std::vector<std::pair<MessageType, std::string>> frames;
  auto add = [&frames](MessageType t, const auto& msg) {
    std::string payload;
    msg.AppendTo(&payload);
    frames.emplace_back(t, std::move(payload));
  };
  add(MessageType::kError, ErrorResponse::FromStatus(Status::IOError("x")));
  PutBlockRequest put;
  put.node = 5;
  put.bytes = std::string(65536, 'b');
  add(MessageType::kPutBlockRequest, put);
  add(MessageType::kPutBlockResponse, PutBlockResponse());
  add(MessageType::kFetchBlockRequest, FetchBlockRequest());
  FetchBlockResponse fetched;
  fetched.found = true;
  fetched.bytes = std::string(300, 'f');
  add(MessageType::kFetchBlockResponse, fetched);
  add(MessageType::kProbeBlockRequest, ProbeBlockRequest());
  add(MessageType::kProbeBlockResponse, ProbeBlockResponse());
  add(MessageType::kHeartbeatRequest, HeartbeatRequest());
  add(MessageType::kHeartbeatResponse, HeartbeatResponse());
  add(MessageType::kShutdownRequest, ShutdownRequest());
  add(MessageType::kShutdownResponse, ShutdownResponse());
  add(MessageType::kStatsRequest, StatsRequest());
  StatsResponse stats;
  stats.now_us = 1;
  stats.metrics.push_back({"tasks_run", 0, 3});
  StatsSpan stats_span;
  stats_span.trace_id = 2;
  stats_span.name = "serve_fetch";
  stats.spans.push_back(stats_span);
  add(MessageType::kStatsResponse, stats);

  std::string stream;
  for (const auto& [type, payload] : frames) {
    EncodeFrame(type, payload, &stream);
  }

  std::mt19937 rng(20240807);  // fixed seed: reproducible failures
  for (int trial = 0; trial < 100; ++trial) {
    RawPeer peer = MakeRawPeer();
    std::vector<size_t> chunks;
    std::uniform_int_distribution<size_t> chunk(1, 4096);
    for (size_t off = 0; off < stream.size(); off += chunks.back()) {
      chunks.push_back(std::min(chunk(rng), stream.size() - off));
    }
    Status written;
    std::thread writer([&] {
      size_t off = 0;
      for (size_t n : chunks) {
        written = WriteRaw(&peer.writer, stream.data() + off, n);
        if (!written.ok()) return;
        off += n;
      }
    });
    std::vector<std::pair<MessageType, std::string>> got;
    Status received;
    while (received.ok() && got.size() < frames.size()) {
      MessageType type = MessageType::kError;
      std::string payload;
      received = peer.reader.Recv(&type, &payload);
      if (received.ok()) got.emplace_back(type, std::move(payload));
    }
    peer.reader.ShutdownBoth();  // a writer blocked after a failure fails
    writer.join();
    ASSERT_TRUE(received.ok()) << "frame " << got.size() << ": "
                               << received.ToString();
    ASSERT_TRUE(written.ok()) << written.ToString();
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i].first, frames[i].first) << "frame " << i;
      EXPECT_EQ(got[i].second, frames[i].second) << "frame " << i;
    }
  }
}

TEST(ConnectionRecvTest, GarbagePayloadSurfacesAsParseStatus) {
  // A well-framed but semantically garbage payload passes the frame
  // layer (it checks framing only) and must then fail message Parse with
  // a Status — the server handler path for malformed requests.
  std::string garbage(17, '\xee');
  std::string frame;
  EncodeFrame(MessageType::kPutBlockRequest, garbage, &frame);
  RawPeer peer = MakeRawPeer();
  ASSERT_TRUE(WriteRaw(&peer.writer, frame.data(), frame.size()).ok());
  MessageType type = MessageType::kError;
  std::string payload;
  ASSERT_TRUE(peer.reader.Recv(&type, &payload).ok());
  EXPECT_EQ(type, MessageType::kPutBlockRequest);
  EXPECT_EQ(payload, garbage);
  EXPECT_FALSE(PutBlockRequest::Parse(payload.data(), payload.size()).ok());
}

}  // namespace
}  // namespace net
}  // namespace spangle
