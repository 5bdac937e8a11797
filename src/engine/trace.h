#ifndef SPANGLE_ENGINE_TRACE_H_
#define SPANGLE_ENGINE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace spangle {

// Distributed tracing primitives (DESIGN.md §14).
//
// The driver stamps a (trace_id, span_id, parent_span_id) triple on every
// job / stage / task it runs; data-plane RPCs carry the triple to the
// executor daemons, whose serve-side work records spans into a bounded
// per-daemon SpanRecorder ring. The stats pull plane drains those rings
// back to the driver, which merges them — clock-offset adjusted — with
// its own spans into one Chrome trace.

/// The ambient trace identity of the current thread. trace_id == 0 means
/// "not traced": RPCs stamp all-zero headers and daemons record nothing.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;          // the innermost enclosing span
  uint64_t parent_span_id = 0;   // its parent (0 = root)
};

namespace trace {

/// Thread-local trace context. Threads start untraced; RunJob binds the
/// job root, RunStage rebinds per task, and scheduler driver threads
/// inherit from the submitting thread (like internal::SetThreadJobId).
TraceContext Current();
void SetThreadContext(const TraceContext& ctx);

/// RAII binding that restores the previous context on destruction.
class ScopedContext {
 public:
  explicit ScopedContext(const TraceContext& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace trace

/// One finished span. `executor` is -1 for driver-side spans; daemon
/// spans get their executor id stamped when the driver collects them.
/// `start_us` is on the recording process's epoch until the collector
/// shifts daemon spans onto the driver timeline.
struct TraceSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  int32_t executor = -1;
};

/// Bounded ring of finished spans. Overflow drops the oldest span and
/// bumps `dropped()` — tracing must never grow without bound or block
/// the data plane (mirrors the StageStat ring in EngineMetrics).
///
/// `id_base` partitions the span-id space between processes: the driver
/// mints ids from base 0, daemon N from (N+1) << 48, so ids stay unique
/// within a trace without cross-process coordination.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity = kDefaultCapacity,
                        uint64_t id_base = 0)
      : capacity_(capacity), next_span_id_(id_base + 1) {}

  static constexpr size_t kDefaultCapacity = 8192;

  /// No-op when disabled (the tracing on/off switch for overhead
  /// ablation) — span ids already minted are simply discarded.
  void Record(TraceSpan span) EXCLUDES(mu_);

  /// Removes and returns every recorded span (oldest first).
  std::vector<TraceSpan> Drain() EXCLUDES(mu_);

  /// Non-destructive copy (oldest first).
  std::vector<TraceSpan> Snapshot() const EXCLUDES(mu_);

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  std::atomic<uint64_t> next_span_id_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  // Innermost lock: Record() is called from task bodies and from daemon
  // RPC handler threads; nothing is acquired under it.
  mutable Mutex mu_{LockRank::kLeaf};
  std::deque<TraceSpan> ring_ GUARDED_BY(mu_);
};

/// Driver-side view of one executor daemon, fed by the heartbeat gauges
/// and the stats pull plane. Returned by ExecutorFleet::ExecutorStats()
/// and rendered by the fleet-labeled metric exports.
struct FleetExecutorStats {
  int executor = -1;
  bool scraped = false;           // at least one stats pull succeeded
  uint64_t blocks_held = 0;       // heartbeat / stats gauges
  uint64_t bytes_in_memory = 0;
  uint64_t spans_dropped = 0;     // daemon span-ring overflow
  int64_t clock_offset_us = 0;    // daemon epoch - driver epoch
  uint64_t restarts = 0;          // times this slot's daemon was respawned
  // Scraped scalar snapshot of the daemon's EngineMetrics registry:
  // (name, kind, value) with kind mirroring net::StatsMetric (0 counter,
  // 1 gauge, 2 timer).
  std::vector<std::string> metric_names;
  std::vector<uint8_t> metric_kinds;
  std::vector<uint64_t> metric_values;
};

namespace trace {

/// Merged-trace writer: appends Chrome trace_event objects for `spans`
/// to an already-open JSON event array (each object prefixed with
/// ",\n"). Driver spans (executor < 0) land on pid 3 ("driver rpc");
/// daemon spans on pid 10+N with a process_name metadata record per
/// daemon. Every driver span emits a flow-start ("s") keyed on its
/// span_id and every daemon span with a parent emits the matching
/// flow-finish ("f"), which is what visually ties a driver fetch span to
/// the daemon serve span it triggered. Timestamps must already be on the
/// driver epoch.
void WriteSpanEvents(std::FILE* f, const std::vector<TraceSpan>& spans);

constexpr int kDriverRpcPid = 3;
constexpr int kDaemonPidBase = 10;

}  // namespace trace

}  // namespace spangle

#endif  // SPANGLE_ENGINE_TRACE_H_
