#ifndef SPANGLE_NET_EXECUTOR_DAEMON_H_
#define SPANGLE_NET_EXECUTOR_DAEMON_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "engine/block_manager.h"
#include "engine/metrics.h"
#include "engine/trace.h"
#include "net/message.h"
#include "net/rpc_server.h"

namespace spangle {
namespace net {

struct ExecutorDaemonOptions {
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound port
  int executor_id = 0;
  uint64_t memory_budget_bytes = 0;  // 0 = unlimited
  bool tracing = true;  // record serve-side spans for traced requests
};

/// One executor's serving side: a BlockManager shard behind the RPC
/// server. The spangle_executord binary hosts one of these per process;
/// tests may also run one in-process. Blocks arrive already encoded (the
/// driver runs the spill codec before PutBlock), so the daemon stores
/// opaque frames — each kept inside the PutBlock payload it arrived in —
/// and sends them back from there. When the process dies, its shard of
/// the shuffle genuinely disappears and the driver must recover through
/// lineage.
class ExecutorDaemon {
 public:
  explicit ExecutorDaemon(const ExecutorDaemonOptions& options);
  ~ExecutorDaemon();

  ExecutorDaemon(const ExecutorDaemon&) = delete;
  ExecutorDaemon& operator=(const ExecutorDaemon&) = delete;

  Status Start();
  uint16_t port() const { return server_.port(); }

  /// Blocks until a Shutdown RPC arrives, then stops the server. The
  /// daemon main() is Start() + Wait().
  void Wait();

  /// Stops serving without waiting for a Shutdown RPC (tests, ~dtor).
  void Stop();

  const EngineMetrics& metrics() const { return metrics_; }

  /// Microseconds since daemon construction — the epoch every serve span
  /// and the StatsResponse/HeartbeatResponse `now_us` report on.
  uint64_t NowMicros() const;

  /// The serve-side span ring (tests peek at it in-process).
  SpanRecorder& spans() { return spans_; }

 private:
  Status Handle(MessageType req_type, std::string req_payload,
                RpcReply* reply);

  /// Records a finished span; no-op when trace_id == 0 (untraced
  /// request). Serve spans parent under the driver's client span id;
  /// daemon-internal sub-spans parent under their serve span.
  void RecordSpan(uint64_t trace_id, const char* name, uint64_t start_us,
                  uint64_t span_id, uint64_t parent_span_id);

  const int executor_id_;
  const uint16_t requested_port_;

  EngineMetrics metrics_;
  BlockManager blocks_;
  RpcServer server_;
  SpanRecorder spans_;
  const std::chrono::steady_clock::time_point start_time_;

  Mutex mu_{LockRank::kLeaf, "ExecutorDaemon::mu_"};
  CondVar stop_cv_;
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_EXECUTOR_DAEMON_H_
