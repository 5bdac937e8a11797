#include "engine/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/bytes.h"
#include "common/logging.h"

namespace spangle {

namespace {

// The stage accumulator of the task currently running on this thread, if
// any. Bound by Context::RunStage around each task body.
thread_local EngineMetrics::StageAccumulator* tl_stage_acc = nullptr;

// Finite log-scale task-duration bounds (us); the histogram adds an
// implicit overflow bucket.
std::vector<double> TaskDurationBounds() {
  return {10, 100, 1000, 10000, 100000, 1000000, 10000000};
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kTimer:
      return "timer";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void MetricRegistry::RegisterScalar(MetricKind kind, std::string name,
                                    std::string unit, std::string help,
                                    std::atomic<uint64_t>* value) {
  SPANGLE_CHECK(kind != MetricKind::kHistogram);
  SPANGLE_CHECK(value != nullptr);
  SPANGLE_CHECK(Find(name) == nullptr) << "duplicate metric: " << name;
  MetricDef def;
  def.name = std::move(name);
  def.unit = std::move(unit);
  def.help = std::move(help);
  def.kind = kind;
  def.value = value;
  metrics_.push_back(std::move(def));
}

void MetricRegistry::RegisterHistogram(std::string name, std::string unit,
                                       std::string help,
                                       Histogram* histogram) {
  SPANGLE_CHECK(histogram != nullptr);
  SPANGLE_CHECK(Find(name) == nullptr) << "duplicate metric: " << name;
  MetricDef def;
  def.name = std::move(name);
  def.unit = std::move(unit);
  def.help = std::move(help);
  def.kind = MetricKind::kHistogram;
  def.histogram = histogram;
  metrics_.push_back(std::move(def));
}

const MetricDef* MetricRegistry::Find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

MetricSnapshot MetricRegistry::Snapshot() const {
  MetricSnapshot out;
  out.entries_.reserve(metrics_.size());
  for (const MetricDef& m : metrics_) {
    MetricSnapshot::Entry e;
    e.name = m.name;
    e.kind = m.kind;
    if (m.kind == MetricKind::kHistogram) {
      e.bounds = m.histogram->bounds();
      e.buckets = m.histogram->BucketCounts();
      for (const uint64_t c : e.buckets) e.value += c;
    } else {
      e.value = m.value->load(std::memory_order_relaxed);
    }
    out.entries_.push_back(std::move(e));
  }
  return out;
}

MetricSnapshot MetricSnapshot::operator-(const MetricSnapshot& earlier) const {
  SPANGLE_CHECK(entries_.size() == earlier.entries_.size())
      << "snapshots of different registries";
  MetricSnapshot out = *this;
  for (size_t i = 0; i < out.entries_.size(); ++i) {
    Entry& e = out.entries_[i];
    const Entry& prev = earlier.entries_[i];
    if (e.kind == MetricKind::kGauge) continue;
    e.value -= prev.value;
    for (size_t b = 0; b < e.buckets.size(); ++b) {
      e.buckets[b] -= prev.buckets[b];
    }
  }
  return out;
}

const MetricSnapshot::Entry* MetricSnapshot::Find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

uint64_t MetricSnapshot::Value(const std::string& name) const {
  const Entry* e = Find(name);
  return e == nullptr ? 0 : e->value;
}

double MetricSnapshot::Percentile(const std::string& name, double q) const {
  const Entry* e = Find(name);
  if (e == nullptr) return 0.0;
  return Histogram::PercentileFromCounts(e->bounds, e->buckets, q);
}

std::string StageStat::ToString() const {
  std::ostringstream os;
  os << "stage#" << seq << " '" << name << "'";
  if (attempt > 0) os << " attempt=" << attempt;
  os << " job=" << job_id << " tasks=" << num_tasks << " wall=" << wall_us
     << "us task[min/mean/max]=" << min_task_us << "/"
     << (num_tasks > 0 ? total_task_us / num_tasks : 0) << "/" << max_task_us
     << "us skew=" << skew_ratio << " stragglers=" << num_stragglers;
  if (task_retries > 0) os << " task_retries=" << task_retries;
  if (shuffle_bytes > 0) {
    os << " shuffled=" << HumanBytes(shuffle_bytes) << " ("
       << shuffle_records << " records)";
  }
  if (remote_fetch_us > 0) os << " remote_fetch=" << remote_fetch_us << "us";
  return os.str();
}

const std::vector<double>& EngineMetrics::DensityBounds() {
  static const std::vector<double> kBounds = {0.001, 0.01, 0.05, 0.1,
                                              0.25,  0.5,  0.75, 1.0};
  return kBounds;
}

const std::vector<double>& EngineMetrics::RttBoundsUs() {
  static const std::vector<double> kBounds = {
      50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000};
  return kBounds;
}

double Histogram::PercentileFromCounts(const std::vector<double>& bounds,
                                       const std::vector<uint64_t>& counts,
                                       double q) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, ceil).
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const uint64_t prev = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // The open overflow bucket has no upper edge; clamp to the last
    // bound (consistent with Prometheus-style le="+Inf" reporting).
    if (b >= bounds.size()) return bounds.back();
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = bounds[b];
    const uint64_t in_bucket = counts[b];
    if (in_bucket == 0) return upper;
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * (frac < 0.0 ? 0.0 : frac);
  }
  return bounds.back();
}

const std::vector<double>& EngineMetrics::LatencyBoundsUs() {
  static const std::vector<double> kBounds = {
      100,    1000,    5000,    10000,    50000,     100000,
      500000, 1000000, 5000000, 10000000, 60000000};
  return kBounds;
}

EngineMetrics::EngineMetrics()
    : task_duration_us(TaskDurationBounds()),
      heartbeat_rtt_us(RttBoundsUs()),
      job_queue_wait_us(LatencyBoundsUs()),
      job_run_us(LatencyBoundsUs()),
      job_e2e_us(LatencyBoundsUs()),
      chunk_density(DensityBounds()),
      mask_density(DensityBounds()) {
  const auto counter = [this](const char* name, const char* unit,
                              const char* help, std::atomic<uint64_t>* v) {
    registry_.RegisterScalar(MetricKind::kCounter, name, unit, help, v);
  };
  const auto gauge = [this](const char* name, const char* unit,
                            const char* help, std::atomic<uint64_t>* v) {
    registry_.RegisterScalar(MetricKind::kGauge, name, unit, help, v);
  };
  counter("jobs_run", "count", "Jobs submitted by actions", &jobs_run);
  counter("tasks_run", "count", "Tasks executed across all stages",
          &tasks_run);
  counter("stages_run", "count", "Stages executed (map/reduce/result)",
          &stages_run);
  counter("shuffles", "count", "Shuffle materializations", &shuffles);
  counter("shuffle_records", "count", "Records moved through shuffles",
          &shuffle_records);
  counter("shuffle_bytes", "bytes", "Bytes moved through shuffles",
          &shuffle_bytes);
  counter("recomputed_partitions", "count",
          "Cached partitions recomputed from lineage after loss",
          &recomputed_partitions);
  counter("cache_hits", "count", "Block store hits", &cache_hits);
  counter("cache_misses", "count", "Block store misses", &cache_misses);
  gauge("concurrent_shuffles", "count",
        "Shuffle stages materializing right now", &concurrent_shuffles);
  gauge("peak_concurrent_shuffles", "count",
        "Most shuffle stages ever materializing at once",
        &peak_concurrent_shuffles);
  counter("task_retries", "count", "Failed task attempts re-launched",
          &task_retries);
  counter("stage_reruns", "count",
          "Shuffle stages re-materialized after output loss", &stage_reruns);
  gauge("bytes_cached", "bytes", "Resident block store bytes",
        &bytes_cached);
  gauge("memory_high_water", "bytes", "Max resident bytes observed",
        &memory_high_water);
  counter("evictions", "count", "Blocks evicted under the memory budget",
          &evictions);
  counter("spilled_bytes", "bytes", "Bytes written to spill files",
          &spilled_bytes);
  counter("disk_reads", "count", "Blocks read back from disk", &disk_reads);
  counter("shuffle_block_dedup_hits", "count",
          "Shuffle block commits deduplicated by content hash",
          &shuffle_block_dedup_hits);
  counter("codec_bytes_raw", "bytes",
          "Record-format bytes before chunk-frame encoding",
          &codec_bytes_raw);
  counter("codec_bytes_encoded", "bytes",
          "Chunk-frame bytes after encoding", &codec_bytes_encoded);
  registry_.RegisterScalar(MetricKind::kTimer, "codec_encode_time_us", "us",
                           "Time spent encoding partitions into chunk "
                           "frames",
                           &codec_encode_time_us);
  registry_.RegisterScalar(MetricKind::kTimer, "task_time_us", "us",
                           "Accumulated task execution time", &task_time_us);
  registry_.RegisterHistogram("task_duration_us", "us",
                              "Distribution of task durations",
                              &task_duration_us);
  counter("rpc_bytes_sent", "bytes", "Bytes sent over the RPC transport",
          &rpc_bytes_sent);
  counter("rpc_bytes_received", "bytes",
          "Bytes received over the RPC transport", &rpc_bytes_received);
  counter("rpc_roundtrips", "count", "Completed RPC request/response pairs",
          &rpc_roundtrips);
  counter("remote_shuffle_fetches", "count",
          "Shuffle blocks fetched from executor daemons",
          &remote_shuffle_fetches);
  counter("executor_restarts", "count",
          "Executor daemons respawned after a failure", &executor_restarts);
  counter("heartbeat_misses", "count",
          "Heartbeat probes an executor daemon failed to answer",
          &heartbeat_misses);
  registry_.RegisterHistogram("heartbeat_rtt_us", "us",
                              "Heartbeat round-trip time to executor "
                              "daemons (feeds clock-offset estimation)",
                              &heartbeat_rtt_us);
  registry_.RegisterScalar(MetricKind::kTimer, "remote_fetch_time_us", "us",
                           "Time tasks spent waiting on remote shuffle "
                           "fetches",
                           &remote_fetch_time_us);
  counter("jobs_submitted", "count",
          "Jobs accepted by the JobServer across all sessions",
          &jobs_submitted);
  counter("jobs_served", "count",
          "Jobs the JobServer ran to completion (ok or failed)",
          &jobs_served);
  counter("admission_queued", "count",
          "Jobs whose admission was deferred for BlockManager headroom",
          &admission_queued);
  counter("admission_rejected", "count",
          "Jobs rejected because their estimate can never fit the budget",
          &admission_rejected);
  counter("result_cache_hits", "count",
          "Served jobs answered from the lineage-digest result cache",
          &result_cache_hits);
  counter("result_cache_misses", "count",
          "Cacheable jobs that missed the result cache and computed",
          &result_cache_misses);
  counter("result_cache_evictions", "count",
          "Result-cache entries evicted under the cache budget",
          &result_cache_evictions);
  gauge("result_cache_bytes", "bytes",
        "Payload bytes resident in the result cache", &result_cache_bytes);
  registry_.RegisterHistogram("job_queue_wait_us", "us",
                              "Time served jobs sat queued before dispatch",
                              &job_queue_wait_us);
  registry_.RegisterHistogram("job_run_us", "us",
                              "Execution time of served jobs",
                              &job_run_us);
  registry_.RegisterHistogram("job_e2e_us", "us",
                              "Submit-to-done latency of served jobs",
                              &job_e2e_us);
  counter("mode_transitions", "count",
          "Chunk storage-mode conversions (dense/sparse/super-sparse)",
          &mode_transitions);
  registry_.RegisterHistogram(
      "chunk_density", "fraction",
      "Valid-cell fraction of chunks built during execution",
      &chunk_density);
  registry_.RegisterHistogram(
      "mask_density", "fraction",
      "Set-bit fraction of bitmasks produced by MaskRdd combinators",
      &mask_density);
  counter("stage_stats_dropped", "count",
          "Stage records evicted from the retention ring",
          &stage_stats_dropped_);
}

EngineMetrics::ScopedStageAccumulator::ScopedStageAccumulator(
    StageAccumulator* acc)
    : prev_(tl_stage_acc) {
  tl_stage_acc = acc;
}

EngineMetrics::ScopedStageAccumulator::~ScopedStageAccumulator() {
  tl_stage_acc = prev_;
}

void EngineMetrics::AddShuffleBytes(uint64_t bytes) {
  shuffle_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (tl_stage_acc != nullptr) {
    tl_stage_acc->shuffle_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void EngineMetrics::AddShuffleRecords(uint64_t n) {
  shuffle_records.fetch_add(n, std::memory_order_relaxed);
  if (tl_stage_acc != nullptr) {
    tl_stage_acc->shuffle_records.fetch_add(n, std::memory_order_relaxed);
  }
}

void EngineMetrics::AddRemoteFetchUs(uint64_t us) {
  remote_fetch_time_us.fetch_add(us, std::memory_order_relaxed);
  if (tl_stage_acc != nullptr) {
    tl_stage_acc->remote_fetch_us.fetch_add(us, std::memory_order_relaxed);
  }
}

void EngineMetrics::RaisePeakConcurrentShuffles(uint64_t v) {
  uint64_t cur = peak_concurrent_shuffles.load(std::memory_order_relaxed);
  while (cur < v && !peak_concurrent_shuffles.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void EngineMetrics::RecordStage(StageStat stat) {
  MutexLock lock(&stage_mu_);
  while (stage_stats_.size() >= kMaxStageStats) {
    stage_stats_.pop_front();
    stage_stats_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  stage_stats_.push_back(std::move(stat));
}

std::vector<StageStat> EngineMetrics::StageStats() const {
  MutexLock lock(&stage_mu_);
  return std::vector<StageStat>(stage_stats_.begin(), stage_stats_.end());
}

void EngineMetrics::Reset() {
  // Registry-driven: every registered metric — and only registered
  // metrics — resets, so this cannot drift from the member list.
  for (const MetricDef& m : registry_.metrics()) {
    if (m.kind == MetricKind::kHistogram) {
      m.histogram->Reset();
    } else {
      m.value->store(0, std::memory_order_relaxed);
    }
  }
  MutexLock lock(&stage_mu_);
  stage_stats_.clear();
  stage_stats_dropped_.store(0, std::memory_order_relaxed);
}

std::string EngineMetrics::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const MetricDef& m : registry_.metrics()) {
    if (!first) os << " ";
    first = false;
    os << m.name << "=";
    if (m.kind == MetricKind::kHistogram) {
      os << "hist(n=" << m.histogram->count() << ")";
    } else if (m.unit == "bytes") {
      os << HumanBytes(m.value->load(std::memory_order_relaxed));
    } else {
      os << m.value->load(std::memory_order_relaxed);
    }
  }
  return os.str();
}

}  // namespace spangle
