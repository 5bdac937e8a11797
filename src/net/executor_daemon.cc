#include "net/executor_daemon.h"

#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "codec/chunk_frame.h"
#include "codec/file_io.h"
#include "engine/storage_level.h"

namespace spangle {
namespace net {

namespace {

StorageOptions DaemonStorage(uint64_t budget) {
  StorageOptions options;
  options.memory_budget_bytes = budget;
  return options;
}

// A daemon block is the PutBlock request payload as received, with the
// frame located inside it: keeping the payload avoids copying the frame
// out. The spill codec writes only the frame and reads it back whole.
Result<uint64_t> SpillFrame(const void* data, const std::string& path) {
  const auto* block = static_cast<const SlicedPayload*>(data);
  return codec::WriteWholeFile(block->data(), block->size(), path);
}

// An unreadable spill file is returned as an error: the block store drops
// the block, its fetch finds nothing, and the job re-plans the shuffle.
Result<BlockManager::DataPtr> LoadFrame(const std::string& path) {
  auto read = codec::ReadWholeFile(path);
  SPANGLE_RETURN_NOT_OK(read.status());
  const size_t size = read->size();
  return BlockManager::DataPtr(std::make_shared<const SlicedPayload>(
      *std::move(read), PayloadSlice{0, size}));
}

}  // namespace

ExecutorDaemon::ExecutorDaemon(const ExecutorDaemonOptions& options)
    : executor_id_(options.executor_id),
      requested_port_(options.port),
      // One local "worker": the daemon IS the executor, so FailExecutor
      // semantics inside the shard are meaningless — process death is the
      // failure model here.
      blocks_(DaemonStorage(options.memory_budget_bytes), /*num_workers=*/1,
              &metrics_),
      // Span ids minted here carry the executor id in the high bits so
      // they never collide with the driver's (base 0) within a trace.
      spans_(SpanRecorder::kDefaultCapacity,
             (static_cast<uint64_t>(options.executor_id) + 1) << 48),
      start_time_(std::chrono::steady_clock::now()) {}

ExecutorDaemon::~ExecutorDaemon() { Stop(); }

uint64_t ExecutorDaemon::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void ExecutorDaemon::RecordSpan(uint64_t trace_id, const char* name,
                                uint64_t start_us, uint64_t span_id,
                                uint64_t parent_span_id) {
  if (trace_id == 0) return;
  TraceSpan span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent_span_id;
  span.name = name;
  span.start_us = start_us;
  const uint64_t now = NowMicros();
  span.duration_us = now > start_us ? now - start_us : 0;
  span.executor = executor_id_;
  spans_.Record(std::move(span));
}

Status ExecutorDaemon::Start() {
  return server_.Start(
      requested_port_,
      [this](MessageType req_type, std::string req_payload, RpcReply* reply) {
        return Handle(req_type, std::move(req_payload), reply);
      });
}

void ExecutorDaemon::Wait() {
  {
    MutexLock l(&mu_);
    while (!stopping_) stop_cv_.Wait(mu_);
  }
  // Let the Shutdown response frame reach the driver before the server
  // tears the connection down under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_.Stop();
}

void ExecutorDaemon::Stop() {
  {
    MutexLock l(&mu_);
    stopping_ = true;
  }
  stop_cv_.NotifyAll();
  server_.Stop();
}

Status ExecutorDaemon::Handle(MessageType req_type, std::string req_payload,
                              RpcReply* reply) {
  switch (req_type) {
    case MessageType::kPutBlockRequest: {
      const uint64_t serve_start = NowMicros();
      // Parsed in place: the payload itself becomes the stored block.
      auto req = PutBlockRequestView::Parse(req_payload.data(),
                                            req_payload.size());
      SPANGLE_RETURN_NOT_OK(req.status());
      const uint64_t serve_span =
          req->trace.trace_id != 0 ? spans_.NextSpanId() : 0;
      const BlockId id{req->node, req->partition};
      const char* frame = req_payload.data() + req->bytes.offset;
      const uint64_t bytes = req->bytes.size;
      // Receipt validation: re-hash the frame and compare against the
      // sender's content address. A mismatch means the bytes were
      // corrupted between the driver's encoder and here; refusing the
      // store turns silent corruption into a retryable RPC error.
      if (req->content_hash != 0) {
        const uint64_t verify_start = NowMicros();
        if (bytes < codec::kFrameHeaderBytes ||
            codec::ComputeFrameHash(frame, bytes) != req->content_hash) {
          return Status::IOError(
              "PutBlock: frame content hash mismatch (corrupted in flight)");
        }
        RecordSpan(req->trace.trace_id, "hash_verify", verify_start,
                   req->trace.trace_id != 0 ? spans_.NextSpanId() : 0,
                   serve_span);
      }
      auto payload = std::make_shared<const SlicedPayload>(
          std::move(req_payload), req->bytes);
      PutBlockResponse out;
      if (req->content_hash != 0 &&
          blocks_.ContentHashOf(id) == req->content_hash) {
        // The daemon already holds an identical payload (duplicate
        // store from a task retry or a partial shuffle rerun): keep it,
        // count the dedup, and tell the driver its copy was discarded.
        out.deduped = !blocks_.PutIfAbsent(
            id, std::move(payload), bytes, StorageLevel::kMemoryAndDisk,
            SpillFrame, LoadFrame, /*recomputable=*/false, req->content_hash);
      } else {
        // Frames spill verbatim and read back whole, so a memory-pressured
        // daemon pushes shuffle blocks to disk instead of dying.
        blocks_.Put(id, std::move(payload), bytes,
                    StorageLevel::kMemoryAndDisk, SpillFrame, LoadFrame,
                    /*recomputable=*/false, req->content_hash);
      }
      reply->type = PutBlockResponse::kType;
      out.AppendTo(&reply->head);
      RecordSpan(req->trace.trace_id, "serve_put", serve_start, serve_span,
                 req->trace.span_id);
      return Status::OK();
    }
    case MessageType::kFetchBlockRequest: {
      const uint64_t serve_start = NowMicros();
      auto req = FetchBlockRequest::Parse(req_payload.data(),
                                          req_payload.size());
      SPANGLE_RETURN_NOT_OK(req.status());
      const BlockId id{req->node, req->partition};
      const auto got = blocks_.Get(id);
      FetchBlockResponse resp;
      if (got.data != nullptr) {
        // The stored frame goes out between the reply's head and tail,
        // straight from the block (pinned until it is written).
        resp.found = true;
        resp.content_hash = blocks_.ContentHashOf(id);
        reply->body = static_cast<const SlicedPayload*>(got.data.get())->view();
        reply->pin = got.data;
      }
      reply->type = FetchBlockResponse::kType;
      resp.AppendHead(reply->body.size(), &reply->head);
      resp.AppendTail(&reply->tail);
      RecordSpan(req->trace.trace_id, "serve_fetch", serve_start,
                 req->trace.trace_id != 0 ? spans_.NextSpanId() : 0,
                 req->trace.span_id);
      return Status::OK();
    }
    case MessageType::kProbeBlockRequest: {
      auto req = ProbeBlockRequest::Parse(req_payload.data(),
                                          req_payload.size());
      SPANGLE_RETURN_NOT_OK(req.status());
      ProbeBlockResponse resp;
      resp.found = blocks_.Contains(BlockId{req->node, req->partition});
      reply->type = ProbeBlockResponse::kType;
      resp.AppendTo(&reply->head);
      return Status::OK();
    }
    case MessageType::kHeartbeatRequest: {
      auto req = HeartbeatRequest::Parse(req_payload.data(),
                                         req_payload.size());
      SPANGLE_RETURN_NOT_OK(req.status());
      HeartbeatResponse resp;
      resp.seq = req->seq;
      resp.blocks_held = blocks_.num_resident_blocks();
      resp.bytes_in_memory = blocks_.bytes_in_memory();
      resp.now_us = NowMicros();
      reply->type = HeartbeatResponse::kType;
      resp.AppendTo(&reply->head);
      return Status::OK();
    }
    case MessageType::kStatsRequest: {
      auto req = StatsRequest::Parse(req_payload.data(), req_payload.size());
      SPANGLE_RETURN_NOT_OK(req.status());
      StatsResponse resp;
      resp.now_us = NowMicros();
      resp.blocks_held = blocks_.num_resident_blocks();
      resp.bytes_in_memory = blocks_.bytes_in_memory();
      resp.spans_dropped = spans_.dropped();
      // Flatten the registry: scalars verbatim, histograms as
      // <name>_count / <name>_sum counters (the driver labels them with
      // executor="N", so bucket detail would triple the payload for
      // little insight at fleet granularity).
      for (const MetricDef& def : metrics_.registry().metrics()) {
        if (def.kind == MetricKind::kHistogram) {
          resp.metrics.push_back(
              {def.name + "_count", 0, def.histogram->count()});
          resp.metrics.push_back(
              {def.name + "_sum", 0,
               static_cast<uint64_t>(def.histogram->sum())});
        } else {
          resp.metrics.push_back(
              {def.name, static_cast<uint8_t>(def.kind),
               def.value->load(std::memory_order_relaxed)});
        }
      }
      const std::vector<TraceSpan> spans =
          req->drain_spans ? spans_.Drain() : spans_.Snapshot();
      resp.spans.reserve(spans.size());
      for (const TraceSpan& s : spans) {
        resp.spans.push_back({s.trace_id, s.span_id, s.parent_span_id,
                              s.name, s.start_us, s.duration_us});
      }
      reply->type = StatsResponse::kType;
      resp.AppendTo(&reply->head);
      return Status::OK();
    }
    case MessageType::kShutdownRequest: {
      auto req = ShutdownRequest::Parse(req_payload.data(),
                                        req_payload.size());
      SPANGLE_RETURN_NOT_OK(req.status());
      {
        MutexLock l(&mu_);
        stopping_ = true;
      }
      stop_cv_.NotifyAll();
      reply->type = ShutdownResponse::kType;
      ShutdownResponse().AppendTo(&reply->head);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          std::string("executor daemon cannot serve ") +
          MessageTypeName(req_type));
  }
}

}  // namespace net
}  // namespace spangle
