#ifndef SPANGLE_ENGINE_METRICS_H_
#define SPANGLE_ENGINE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spangle {

/// Where and when one task of a stage ran (times are microseconds on the
/// owning context's trace epoch).
struct TaskStat {
  int index = 0;
  int lane = 0;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  int attempt = 0;  // retry round that ran the task (0 = first launch)
};

/// One executed stage: identity, wall time, task-time distribution, skew,
/// and the shuffle bytes its tasks produced. Recorded by Context::RunStage
/// for every stage — shuffle map/reduce sides and action result stages
/// alike — and consumed by Explain-style reporting, tests, and the Chrome
/// trace exporter (Context::DumpTrace).
struct StageStat {
  uint64_t job_id = 0;   // 0 = outside any scheduler-submitted job
  uint64_t seq = 0;      // global stage sequence number (per context)
  std::string name;      // e.g. "reduceByKey/map", "collect"
  int attempt = 0;       // stage attempt: reruns of a lost shuffle stage
                         // (or job re-attempts of a result stage) count up
  int num_tasks = 0;
  uint64_t start_us = 0;
  uint64_t wall_us = 0;

  // Fault-tolerance accounting for this stage execution.
  int task_retries = 0;  // failed task attempts re-launched

  // Task-time distribution.
  uint64_t min_task_us = 0;
  uint64_t max_task_us = 0;
  uint64_t total_task_us = 0;
  double skew_ratio = 0.0;  // max task time / mean task time
  int num_stragglers = 0;  // tasks slower than 2x the stage mean

  // Bytes/records this stage's tasks pushed through the shuffle write
  // path (zero for narrow/result stages).
  uint64_t shuffle_bytes = 0;
  uint64_t shuffle_records = 0;

  // Time this stage's tasks spent blocked fetching shuffle blocks from
  // executor daemons (zero in LOCAL mode).
  uint64_t remote_fetch_us = 0;

  // Per-task detail for trace export; the first num_tasks entries are the
  // primary attempts (slot per task), with retry attempts appended after
  // them (attempt > 0 ⇒ an extra lane in the trace).
  std::vector<TaskStat> tasks;

  std::string ToString() const;
};

/// What a registered metric measures. Counters only go up (until Reset),
/// gauges track a current level, timers are counters whose unit is
/// microseconds of accumulated time, histograms bucket observations.
enum class MetricKind { kCounter, kGauge, kTimer, kHistogram };

const char* MetricKindName(MetricKind kind);

/// Thread-safe fixed-bucket histogram: `bounds` are ascending inclusive
/// upper edges, with an implicit open overflow bucket after the last one
/// (BucketCounts() returns bounds().size() + 1 entries).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), bucket_counts_(bounds_.size() + 1) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v) {
    size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    bucket_counts_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& c : bucket_counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> BucketCounts() const {
    std::vector<uint64_t> out;
    out.reserve(bucket_counts_.size());
    for (const auto& c : bucket_counts_) {
      out.push_back(c.load(std::memory_order_relaxed));
    }
    return out;
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Estimated q-quantile (0 < q <= 1) by linear interpolation inside the
  /// bucket holding the target rank; observations in the open overflow
  /// bucket clamp to the last bound. 0 with no observations. The static
  /// variant works on externally diffed bucket counts (per-query scoping).
  double Percentile(double q) const {
    return PercentileFromCounts(bounds_, BucketCounts(), q);
  }
  static double PercentileFromCounts(const std::vector<double>& bounds,
                                     const std::vector<uint64_t>& counts,
                                     double q);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> bucket_counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One registered metric: a stable name (snake_case, also the Prometheus
/// name suffix), unit ("count", "bytes", "us", "fraction"), help text,
/// and a pointer to the backing atomic or histogram. The pointers target
/// members of the owning EngineMetrics, so a registry entry is valid for
/// the metrics object's lifetime.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::atomic<uint64_t>* value = nullptr;  // scalar kinds
  Histogram* histogram = nullptr;          // kHistogram only
};

class MetricRegistry;

/// Plain-value copy of every registered metric, in registry order: scalar
/// values, and each histogram's bucket counts. Subtracting an earlier
/// snapshot of the same registry leaves the activity in between — how
/// ExplainAnalyze scopes the context-wide metrics to one run.
class MetricSnapshot {
 public:
  /// Counters, timers and histogram buckets subtract; a gauge keeps this
  /// snapshot's level, since the difference of two levels measures
  /// nothing.
  MetricSnapshot operator-(const MetricSnapshot& earlier) const;

  /// The value of scalar `name`, or the observation count of histogram
  /// `name`; 0 when no such metric is registered.
  uint64_t Value(const std::string& name) const;

  /// Estimated q-quantile of histogram `name` over this snapshot's bucket
  /// counts (see Histogram::Percentile); 0 when absent or empty.
  double Percentile(const std::string& name, double q) const;

 private:
  friend class MetricRegistry;

  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    uint64_t value = 0;             // scalar value or observation count
    std::vector<double> bounds;     // kHistogram only
    std::vector<uint64_t> buckets;  // kHistogram only
  };

  const Entry* Find(const std::string& name) const;

  std::vector<Entry> entries_;
};

/// Typed metric registry: every EngineMetrics counter/gauge/timer/
/// histogram registers itself here exactly once, and Reset()/ToString()/
/// Snapshot()/the JSON + Prometheus exporters iterate the registry — so
/// adding a metric in one place keeps every surface in sync by
/// construction.
class MetricRegistry {
 public:
  void RegisterScalar(MetricKind kind, std::string name, std::string unit,
                      std::string help, std::atomic<uint64_t>* value);
  void RegisterHistogram(std::string name, std::string unit,
                         std::string help, Histogram* histogram);

  const std::vector<MetricDef>& metrics() const { return metrics_; }
  const MetricDef* Find(const std::string& name) const;

  /// Current values of every registered metric.
  MetricSnapshot Snapshot() const;

 private:
  std::vector<MetricDef> metrics_;
};

/// Per-context execution counters. The paper's performance arguments are
/// about *what moves*: shuffle volume, stage counts, recomputation. These
/// counters let tests assert structural claims (e.g. "co-partitioned join
/// shuffles zero bytes") and let benches report simulated network cost.
/// Since the DAG-scheduler refactor the metrics also retain a structured
/// per-stage log (StageStats) feeding Explain output and trace dumps; the
/// observability PR added the registry, histograms, and machine-readable
/// exporters (metrics_export.h).
class EngineMetrics {
 public:
  /// Inclusive upper edges for density-style histograms (fraction of
  /// valid cells in a chunk / set bits in a bitmask, 0..1).
  static const std::vector<double>& DensityBounds();

  /// Log-scale upper edges for heartbeat round-trip times (microseconds,
  /// loopback RPC scale).
  static const std::vector<double>& RttBoundsUs();

  /// Log-scale upper edges for serving-side job latencies (microseconds,
  /// queue wait through end-to-end).
  static const std::vector<double>& LatencyBoundsUs();

  EngineMetrics();

  EngineMetrics(const EngineMetrics&) = delete;
  EngineMetrics& operator=(const EngineMetrics&) = delete;

  void Reset();

  std::atomic<uint64_t> jobs_run{0};
  std::atomic<uint64_t> tasks_run{0};
  std::atomic<uint64_t> stages_run{0};
  std::atomic<uint64_t> shuffles{0};
  std::atomic<uint64_t> shuffle_records{0};
  std::atomic<uint64_t> shuffle_bytes{0};
  std::atomic<uint64_t> recomputed_partitions{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};

  // Scheduler concurrency: how many shuffle stages are materializing
  // right now (gauge, feeds the trace counter track) and the most ever
  // observed at the same instant (>= 2 proves stage overlap).
  std::atomic<uint64_t> concurrent_shuffles{0};
  std::atomic<uint64_t> peak_concurrent_shuffles{0};

  // Fault tolerance: task retries and mid-job recovery.
  std::atomic<uint64_t> task_retries{0};      // failed attempts re-launched
  std::atomic<uint64_t> stage_reruns{0};      // shuffle stages re-materialized
                                              // after their output was lost

  // Storage subsystem (BlockManager) counters.
  std::atomic<uint64_t> bytes_cached{0};       // gauge: resident block bytes
  std::atomic<uint64_t> memory_high_water{0};  // max bytes_cached observed
  std::atomic<uint64_t> evictions{0};          // blocks evicted under budget
  std::atomic<uint64_t> spilled_bytes{0};      // bytes written to spill files
  std::atomic<uint64_t> disk_reads{0};         // blocks read back from disk
  std::atomic<uint64_t> shuffle_block_dedup_hits{0};  // content-addressed
                                                      // commits folded into an
                                                      // identical stored block

  // Chunk-frame codec: raw (record-format) vs encoded bytes across every
  // partition encode, and the time spent encoding. The raw/encoded ratio
  // is the columnar compression win; both count the same partitions.
  std::atomic<uint64_t> codec_bytes_raw{0};
  std::atomic<uint64_t> codec_bytes_encoded{0};
  std::atomic<uint64_t> codec_encode_time_us{0};

  // Execution time: accumulated task CPU-occupancy time across all
  // stages (timer), plus a log-scale distribution of task durations.
  std::atomic<uint64_t> task_time_us{0};
  Histogram task_duration_us;

  // Distributed mode (net layer): RPC wire volume, roundtrips, shuffle
  // blocks pulled from executor daemons, daemon replacements after a
  // crash/kill, and heartbeat probes that went unanswered. All zero in
  // LOCAL mode.
  std::atomic<uint64_t> rpc_bytes_sent{0};
  std::atomic<uint64_t> rpc_bytes_received{0};
  std::atomic<uint64_t> rpc_roundtrips{0};
  std::atomic<uint64_t> remote_shuffle_fetches{0};
  std::atomic<uint64_t> executor_restarts{0};
  std::atomic<uint64_t> heartbeat_misses{0};
  std::atomic<uint64_t> remote_fetch_time_us{0};

  // Heartbeat round-trip time to executor daemons. Beyond health, the
  // RTT feeds the per-daemon clock-offset estimate (the RTT-midpoint
  // method) that aligns daemon span timestamps in merged traces.
  Histogram heartbeat_rtt_us;

  // Multi-tenant serving (JobServer): jobs accepted per session, jobs
  // whose admission was deferred because their memory estimate exceeded
  // the BlockManager headroom (counted once per deferred job), jobs
  // rejected outright because the estimate can never fit the budget, and
  // the shared lineage-digest result cache's hit/miss/eviction traffic.
  // All zero when no JobServer is attached to the context.
  std::atomic<uint64_t> jobs_submitted{0};
  std::atomic<uint64_t> jobs_served{0};  // completed (ok or failed)
  std::atomic<uint64_t> admission_queued{0};
  std::atomic<uint64_t> admission_rejected{0};
  std::atomic<uint64_t> result_cache_hits{0};
  std::atomic<uint64_t> result_cache_misses{0};
  std::atomic<uint64_t> result_cache_evictions{0};
  std::atomic<uint64_t> result_cache_bytes{0};  // gauge: cached payload bytes

  // Serving latency distributions across every session: time a job sat
  // queued before dispatch, time executing, and submit-to-done. The
  // JobServer also keeps per-session copies for the ExplainAnalyze
  // `serving:` percentiles.
  Histogram job_queue_wait_us;
  Histogram job_run_us;
  Histogram job_e2e_us;

  // Array-layer structure: chunk storage-mode conversions (dense ↔
  // sparse ↔ super-sparse), the density of chunks built during execution,
  // and the density of bitmasks produced by MaskRdd combinators — the
  // quantities behind the paper's Fig. 7/8 arguments.
  std::atomic<uint64_t> mode_transitions{0};
  Histogram chunk_density;
  Histogram mask_density;

  /// Credits shuffle volume to the global counters AND to the stage the
  /// calling task belongs to (registered via ScopedStageAccumulator).
  /// Shuffle writers must use these instead of touching the atomics so
  /// per-stage attribution stays correct under concurrent stages.
  void AddShuffleBytes(uint64_t bytes);
  void AddShuffleRecords(uint64_t n);

  /// Credits remote-fetch wait time globally and to the calling task's
  /// stage (same attribution contract as AddShuffleBytes).
  void AddRemoteFetchUs(uint64_t us);

  /// Raises peak_concurrent_shuffles to at least `v`.
  void RaisePeakConcurrentShuffles(uint64_t v);

  /// Per-stage shuffle-volume accumulator, bound to the running task's
  /// thread for the duration of the task body by Context::RunStage.
  struct StageAccumulator {
    std::atomic<uint64_t> shuffle_bytes{0};
    std::atomic<uint64_t> shuffle_records{0};
    std::atomic<uint64_t> remote_fetch_us{0};
  };
  class ScopedStageAccumulator {
   public:
    explicit ScopedStageAccumulator(StageAccumulator* acc);
    ~ScopedStageAccumulator();
    ScopedStageAccumulator(const ScopedStageAccumulator&) = delete;
    ScopedStageAccumulator& operator=(const ScopedStageAccumulator&) = delete;

   private:
    StageAccumulator* prev_;
  };

  /// Appends one stage record. Retention is a ring: past the cap the
  /// OLDEST record is dropped (counted in stage_stats_dropped), so a
  /// long-running context always keeps the most recent stages — the ones
  /// being debugged.
  void RecordStage(StageStat stat) EXCLUDES(stage_mu_);

  /// Snapshot of every retained stage record, in execution order.
  std::vector<StageStat> StageStats() const EXCLUDES(stage_mu_);

  uint64_t stage_stats_dropped() const {
    return stage_stats_dropped_.load(std::memory_order_relaxed);
  }

  /// Every registered metric (stable registration order).
  const MetricRegistry& registry() const { return registry_; }

  std::string ToString() const;

 private:
  static constexpr size_t kMaxStageStats = 8192;

  MetricRegistry registry_;

  // Innermost engine lock (rank kMetrics): nothing is acquired under it.
  mutable Mutex stage_mu_{LockRank::kMetrics, "EngineMetrics::stage_mu_"};
  std::deque<StageStat> stage_stats_ GUARDED_BY(stage_mu_);
  std::atomic<uint64_t> stage_stats_dropped_{0};
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_METRICS_H_
