#ifndef SPANGLE_NET_EXECUTOR_FLEET_H_
#define SPANGLE_NET_EXECUTOR_FLEET_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/metrics.h"
#include "engine/trace.h"
#include "net/deployment.h"
#include "net/rpc_client.h"

namespace spangle {
namespace net {

/// The driver's view of its executor daemons: spawns spangle_executord
/// child processes, keeps one RpcClient per daemon, restarts daemons that
/// die, and exposes the block RPCs the shuffle path needs. Partition p is
/// owned by daemon p % num_executors().
///
/// mu_ has rank kNetFleet (46): it may be held while calling into an
/// RpcClient (rank kNetClient=12); task bodies take it holding no engine
/// lock. Spawn/restart runs under mu_ — daemon churn is rare and must
/// serialize anyway.
class ExecutorFleet {
 public:
  /// `spans` (optional) is the driver's span recorder: data-plane RPCs
  /// stamp trace headers from the calling thread's TraceContext, mint
  /// client span ids from it, and record client-side spans into it.
  /// `now_us` (optional) is the driver's trace-epoch clock, used for
  /// heartbeat RTT and daemon clock-offset estimation; defaults to
  /// microseconds since fleet construction.
  ExecutorFleet(const DistributedOptions& options, EngineMetrics* metrics,
                SpanRecorder* spans = nullptr,
                std::function<uint64_t()> now_us = {});
  ~ExecutorFleet();

  ExecutorFleet(const ExecutorFleet&) = delete;
  ExecutorFleet& operator=(const ExecutorFleet&) = delete;

  /// Spawns every daemon and connects to each. Fails if any daemon does
  /// not announce its port within spawn_timeout_ms.
  Status Start() EXCLUDES(mu_);

  /// Sends Shutdown to every live daemon (best effort), then reaps the
  /// children (SIGKILL after a grace period). Idempotent.
  void Shutdown() EXCLUDES(mu_);

  int num_executors() const { return num_executors_; }

  /// pid of executor w's current daemon process, or -1 when down.
  pid_t executor_pid(int w) EXCLUDES(mu_);

  /// Stores one encoded shuffle partition (a chunk frame, carried
  /// verbatim and sent straight from `bytes`) on its owner daemon.
  /// `content_hash` lets the daemon validate the frame on receipt and
  /// dedup identical re-stores; the response's `deduped` reports whether
  /// an identical payload was already held. Retries once against the
  /// restarted replacement on failure (including hash-validation
  /// refusals). A frame too big for one RPC fails with OutOfRange before
  /// anything is sent, and no daemon is restarted over it.
  Result<PutBlockResponse> PutBlock(uint64_t node, int partition,
                                    std::string_view bytes,
                                    uint64_t content_hash) EXCLUDES(mu_);

  /// Fetches a block from its owner: the frame, located inside the reply
  /// payload it arrived in, and in *content_hash the hash the daemon
  /// stored it under (0 = unhashed). nullopt means the block is gone —
  /// the daemon died, or restarted without it: the caller raises
  /// ShuffleBlockLostError and lineage re-plans.
  std::optional<SlicedPayload> FetchBlock(uint64_t node, int partition,
                                          uint64_t* content_hash)
      EXCLUDES(mu_);

  /// True when the owner daemon holds the block. Any RPC failure counts
  /// as "not held" — the block is unreachable either way.
  bool ProbeBlock(uint64_t node, int partition) EXCLUDES(mu_);

  /// One heartbeat probe of executor w. A miss is counted and, past
  /// heartbeat_miss_limit consecutive misses, fails the daemon. A
  /// success records the RTT histogram, refreshes executor w's gauges
  /// (blocks_held / bytes_in_memory), and re-estimates its
  /// clock offset from the RTT midpoint.
  Result<HeartbeatResponse> Heartbeat(int w) EXCLUDES(mu_);

  /// Pulls executor w's metrics snapshot and drains its span ring into
  /// the driver-side span store (so the spans survive a later daemon
  /// death). Does not count toward heartbeat misses — liveness is the
  /// heartbeat's job.
  Status ScrapeStats(int w) EXCLUDES(mu_);

  /// Best-effort ScrapeStats of every executor. Also runs periodically
  /// on the heartbeat thread when heartbeats are enabled.
  void ScrapeAll() EXCLUDES(mu_);

  /// Snapshot of the per-executor driver-side stats (heartbeat gauges,
  /// scraped metric families, clock offsets, restart counts).
  std::vector<FleetExecutorStats> ExecutorStats() const EXCLUDES(stats_mu_);

  /// Every daemon span collected so far (oldest scrape first), with
  /// executor ids stamped and timestamps already shifted onto the
  /// driver's epoch. Includes spans drained from daemons that have since
  /// been killed or restarted.
  std::vector<TraceSpan> CollectedSpans() const EXCLUDES(stats_mu_);

  /// Driver-side spans dropped because the collected-span store hit its
  /// cap (daemon-side ring drops are per-executor in ExecutorStats()).
  uint64_t collected_spans_dropped() const {
    return collected_dropped_.load(std::memory_order_relaxed);
  }

  /// Chaos hook: SIGKILL executor w's daemon — its blocks are genuinely
  /// gone — then restart a replacement (empty) daemon if configured.
  void FailExecutor(int w) EXCLUDES(mu_);

  /// Finds the spangle_executord binary: $SPANGLE_EXECUTORD, else paths
  /// relative to /proc/self/exe. Empty string when not found.
  static std::string FindExecutordBinary();

 private:
  struct Slot {
    pid_t pid = -1;
    uint16_t port = 0;
    // shared_ptr so RPCs can run on a slot's client outside mu_ while a
    // concurrent restart swaps the slot's client pointer.
    std::shared_ptr<RpcClient> client;
    int heartbeat_misses = 0;
  };

  Status SpawnLocked(int w) REQUIRES(mu_);
  void KillLocked(int w) REQUIRES(mu_);
  /// Serialized failure handling: kills/restarts slot w only when its pid
  /// still equals expected_pid, so concurrent reports of one death spawn
  /// one replacement.
  void ReportFailure(int w, pid_t expected_pid) EXCLUDES(mu_);
  std::shared_ptr<RpcClient> ClientFor(int w, pid_t* pid_out) EXCLUDES(mu_);
  RpcClientCounters Counters() const;
  void HeartbeatLoop();

  /// Driver trace-epoch clock (now_us_ or the fleet-local fallback).
  uint64_t NowUs() const;

  /// Stamps the calling thread's TraceContext into `trace` with a fresh
  /// client span id; leaves it all-zero when tracing is off or the
  /// thread is untraced. Returns the stamp time (NowUs()).
  uint64_t StampTrace(TraceHeader* trace);

  /// Records the driver-side client span for a stamped request (no-op on
  /// an unstamped one).
  void RecordClientSpan(const TraceHeader& trace, const char* name,
                        uint64_t start_us);

  /// Folds one heartbeat/stats reply into executor w's driver-side
  /// stats. `mid_us` is the RTT midpoint on the driver clock.
  void UpdateClockOffsetLocked(int w, uint64_t daemon_now_us,
                               uint64_t mid_us) REQUIRES(stats_mu_);

  const DistributedOptions options_;
  const int num_executors_;
  EngineMetrics* const metrics_;
  SpanRecorder* const spans_;
  const std::function<uint64_t()> now_us_;
  const std::chrono::steady_clock::time_point fleet_epoch_;
  std::string binary_;

  Mutex mu_{LockRank::kNetFleet, "ExecutorFleet::mu_"};
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;

  // Driver-side fleet stats + collected daemon spans. Rank kMetrics:
  // nothing is acquired under it; it nests safely beneath mu_.
  static constexpr size_t kMaxCollectedSpans = 65536;
  mutable Mutex stats_mu_{LockRank::kMetrics, "ExecutorFleet::stats_mu_"};
  std::vector<FleetExecutorStats> stats_ GUARDED_BY(stats_mu_);
  std::deque<TraceSpan> collected_spans_ GUARDED_BY(stats_mu_);
  std::atomic<uint64_t> collected_dropped_{0};

  std::atomic<bool> heartbeat_stop_{false};
  std::thread heartbeat_thread_;
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_EXECUTOR_FLEET_H_
