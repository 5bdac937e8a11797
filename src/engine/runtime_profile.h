#ifndef SPANGLE_ENGINE_RUNTIME_PROFILE_H_
#define SPANGLE_ENGINE_RUNTIME_PROFILE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/metrics.h"

namespace spangle {

class Context;

namespace internal {
class NodeBase;
}  // namespace internal

/// Chunk storage modes mirrored as plain ints so the engine layer can
/// aggregate them without depending on the array layer's ChunkMode enum
/// (0 = dense, 1 = sparse, 2 = super-sparse; see array/chunk.h).
inline constexpr int kProfileChunkModes = 3;

/// Density histogram bucket count: EngineMetrics::DensityBounds() edges
/// plus the open overflow bucket.
inline constexpr int kProfileDensityBuckets = 9;

struct NodeProfileSnapshot;

/// Executed actuals for one lineage node, accumulated by worker threads
/// through cheap relaxed atomics. Each node owns its NodeProfile, so the
/// actuals live exactly as long as the node they describe; per-query
/// views are snapshot diffs (see ProfiledRun).
struct NodeProfile {
  std::atomic<uint64_t> invocations{0};  // GetPartition calls
  std::atomic<uint64_t> cache_hits{0};   // served from the block store
  std::atomic<uint64_t> rows_in{0};      // records pulled from parents
  std::atomic<uint64_t> rows_out{0};     // records handed to consumers
  std::atomic<uint64_t> bytes_out{0};    // estimated bytes of computed output
  std::atomic<uint64_t> self_us{0};      // wall time minus child time

  // Paper-specific array stats, attributed to the operator whose task
  // body triggered them (chunk.cc / mask_rdd.cc hooks).
  std::array<std::atomic<uint64_t>, kProfileChunkModes> chunks_built{};
  std::array<std::atomic<uint64_t>, kProfileChunkModes * kProfileChunkModes>
      mode_transitions{};  // [from * 3 + to]
  std::array<std::atomic<uint64_t>, kProfileDensityBuckets> density_hist{};

  /// Current values.
  NodeProfileSnapshot Snapshot() const;
};

/// Plain-value copy of a NodeProfile, diffable for per-query scoping.
struct NodeProfileSnapshot {
  uint64_t invocations = 0;
  uint64_t cache_hits = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_out = 0;
  uint64_t self_us = 0;
  std::array<uint64_t, kProfileChunkModes> chunks_built{};
  std::array<uint64_t, kProfileChunkModes * kProfileChunkModes>
      mode_transitions{};
  std::array<uint64_t, kProfileDensityBuckets> density_hist{};

  NodeProfileSnapshot operator-(const NodeProfileSnapshot& rhs) const;
  NodeProfileSnapshot& operator+=(const NodeProfileSnapshot& rhs);

  uint64_t TotalChunksBuilt() const;
  uint64_t TotalModeTransitions() const;
  uint64_t TotalDensityObservations() const;
};

/// Per-context profiling state: the array-layer hooks that charge chunk
/// and mask structure to the running operator's NodeProfile, plus a
/// bounded ring of counter-track samples (cache pressure, shuffle volume,
/// shuffle concurrency over time) merged into DumpTrace. RunStage binds
/// it to every task thread; off a task thread the thread-local hook
/// pointer is null and every hook is a single branch.
class RuntimeProfile {
 public:
  explicit RuntimeProfile(EngineMetrics* metrics) : metrics_(metrics) {}

  RuntimeProfile(const RuntimeProfile&) = delete;
  RuntimeProfile& operator=(const RuntimeProfile&) = delete;

  /// Drops every counter sample (metrics and node actuals are untouched).
  void Clear() EXCLUDES(samples_mu_);

  // Hook bodies, invoked via the prof:: free functions below from the
  // array layer. `np` may be null (instrumented code running outside an
  // operator scope); the context-level EngineMetrics aggregates are
  // updated either way.
  void RecordChunk(NodeProfile* np, int mode, uint64_t num_cells,
                   uint64_t num_valid);
  void RecordModeTransition(NodeProfile* np, int from_mode, int to_mode);
  void RecordMaskDensity(NodeProfile* np, uint64_t set_bits,
                         uint64_t num_bits);

  /// One point on the trace counter tracks.
  struct CounterSample {
    uint64_t t_us = 0;
    uint64_t bytes_cached = 0;
    uint64_t shuffle_bytes = 0;
    uint64_t concurrent_shuffles = 0;
  };

  /// Samples the gauge-like metrics at `now_us` (called by RunStage at
  /// stage start/end). Retention is a ring of the most recent samples.
  void SampleCounters(uint64_t now_us) EXCLUDES(samples_mu_);
  std::vector<CounterSample> CounterSamples() const EXCLUDES(samples_mu_);

  EngineMetrics* metrics() const { return metrics_; }

 private:
  static constexpr size_t kMaxCounterSamples = 8192;

  EngineMetrics* metrics_;

  mutable Mutex samples_mu_{LockRank::kProfileSamples,
                            "RuntimeProfile::samples_mu_"};
  std::deque<CounterSample> samples_ GUARDED_BY(samples_mu_);
};

/// Thread-local profiling hooks. Context::RunStage binds the context's
/// RuntimeProfile to the worker thread around each task body (when
/// profiling is enabled); Node::GetPartition opens an OperatorScope per
/// partition computation; the array layer reports chunk/mask structure
/// through the free functions. Everything is a no-op on threads with no
/// bound profile, so driver-side code and profile-off runs pay one
/// pointer test per hook.
namespace prof {

class OperatorScope;

namespace detail {
inline thread_local RuntimeProfile* tl_profile = nullptr;
inline thread_local OperatorScope* tl_scope = nullptr;

inline uint64_t MonoMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace detail

/// RAII binding of a RuntimeProfile to the current thread (task body).
class ScopedThreadProfile {
 public:
  explicit ScopedThreadProfile(RuntimeProfile* p) : prev_(detail::tl_profile) {
    detail::tl_profile = p;
  }
  ~ScopedThreadProfile() { detail::tl_profile = prev_; }
  ScopedThreadProfile(const ScopedThreadProfile&) = delete;
  ScopedThreadProfile& operator=(const ScopedThreadProfile&) = delete;

 private:
  RuntimeProfile* prev_;
};

inline RuntimeProfile* ThreadProfile() { return detail::tl_profile; }

/// One GetPartition invocation of one lineage node. Scopes nest as
/// operators pull from their parents; each records *self* time (total
/// minus time spent inside child scopes) and charges its output rows to
/// the consuming scope's rows_in — the Spark SQL UI accounting.
class OperatorScope {
 public:
  explicit OperatorScope(NodeProfile* np) {
    profile_ = detail::tl_profile;
    if (profile_ == nullptr) return;
    np_ = np;
    parent_ = detail::tl_scope;
    detail::tl_scope = this;
    start_us_ = detail::MonoMicros();
  }

  OperatorScope(const OperatorScope&) = delete;
  OperatorScope& operator=(const OperatorScope&) = delete;

  ~OperatorScope() {
    if (profile_ == nullptr) return;
    const uint64_t total = detail::MonoMicros() - start_us_;
    const uint64_t self = total > child_us_ ? total - child_us_ : 0;
    np_->invocations.fetch_add(1, std::memory_order_relaxed);
    np_->self_us.fetch_add(self, std::memory_order_relaxed);
    np_->rows_out.fetch_add(rows_, std::memory_order_relaxed);
    np_->bytes_out.fetch_add(bytes_, std::memory_order_relaxed);
    if (cached_) np_->cache_hits.fetch_add(1, std::memory_order_relaxed);
    detail::tl_scope = parent_;
    if (parent_ != nullptr) {
      parent_->child_us_ += total;
      parent_->np_->rows_in.fetch_add(rows_, std::memory_order_relaxed);
    }
  }

  /// True when this thread is profiling (guards optional cost like size
  /// estimation at the call site).
  bool active() const { return profile_ != nullptr; }

  /// The partition was computed: record its row count and byte estimate.
  void FinishComputed(uint64_t rows, uint64_t bytes) {
    rows_ = rows;
    bytes_ = bytes;
  }

  /// The partition was served from the block store.
  void FinishCached(uint64_t rows) {
    rows_ = rows;
    cached_ = true;
  }

  NodeProfile* node_profile() const { return np_; }

 private:
  RuntimeProfile* profile_ = nullptr;
  NodeProfile* np_ = nullptr;
  OperatorScope* parent_ = nullptr;
  uint64_t start_us_ = 0;
  uint64_t child_us_ = 0;
  uint64_t rows_ = 0;
  uint64_t bytes_ = 0;
  bool cached_ = false;
};

/// Chunk::FromCells reports every chunk it lays out: the chosen storage
/// mode and the valid-cell density.
inline void RecordChunkBuilt(int mode, uint64_t num_cells,
                             uint64_t num_valid) {
  RuntimeProfile* p = detail::tl_profile;
  if (p == nullptr) return;
  OperatorScope* s = detail::tl_scope;
  p->RecordChunk(s != nullptr ? s->node_profile() : nullptr, mode, num_cells,
                 num_valid);
}

/// Chunk::ConvertTo reports dense ↔ sparse ↔ super-sparse conversions.
inline void RecordModeTransition(int from_mode, int to_mode) {
  RuntimeProfile* p = detail::tl_profile;
  if (p == nullptr) return;
  OperatorScope* s = detail::tl_scope;
  p->RecordModeTransition(s != nullptr ? s->node_profile() : nullptr,
                          from_mode, to_mode);
}

/// MaskRdd combinators report the density of each produced bitmask.
inline void RecordMaskDensity(uint64_t set_bits, uint64_t num_bits) {
  RuntimeProfile* p = detail::tl_profile;
  if (p == nullptr) return;
  OperatorScope* s = detail::tl_scope;
  p->RecordMaskDensity(s != nullptr ? s->node_profile() : nullptr, set_bits,
                       num_bits);
}

}  // namespace prof

/// One lineage node of an executed plan, annotated with actuals.
struct AnalyzedNode {
  uint64_t node_id = 0;
  std::string name;
  int depth = 0;  // distance from the action's root (preorder indent)
  int num_partitions = 0;
  bool is_shuffle = false;
  bool was_materialized = false;  // shuffle output existed before the run
  bool reused = false;            // repeat visit of a diamond lineage
  NodeProfileSnapshot actuals;
};

/// Static plan annotated with executed actuals — the ExplainAnalyze
/// result, machine-readable for tests and renderable for humans.
struct AnalyzedPlan {
  std::string action;
  uint64_t wall_us = 0;
  NodeProfileSnapshot totals;      // sum over non-reused nodes
  std::vector<AnalyzedNode> nodes;  // preorder, roots first
  std::vector<StageStat> stages;    // stages executed during the run
  // Every registered metric's activity during the run (registry snapshot
  // diff): stages_run, codec, shuffle, serving and fleet counters, and
  // the serving latency histograms. Look up with metrics.Value(name) and
  // metrics.Percentile(name, q).
  MetricSnapshot metrics;

  std::string ToString() const;

  /// First node whose name contains `name_substr` (nullptr when absent).
  const AnalyzedNode* Find(const std::string& name_substr) const;
};

/// Measurement session behind ExplainAnalyze: captures the lineage tree,
/// each node's actuals and a metric registry snapshot before the action
/// executes, then diffs after it — so an ExplainAnalyze on a
/// shared/cached lineage reports only this query's execution.
class ProfiledRun {
 public:
  ProfiledRun(Context* ctx, const std::vector<internal::NodeBase*>& roots,
              std::string action);

  /// Diffs the snapshots and assembles the annotated plan. Call once,
  /// after the action has run.
  AnalyzedPlan Finish();

 private:
  Context* ctx_;
  std::string action_;
  std::vector<AnalyzedNode> nodes_;  // actuals hold the starting values
  std::vector<const NodeProfile*> profiles_;  // parallel to nodes_
  uint64_t start_us_ = 0;
  uint64_t first_stage_seq_ = 0;  // stages from this seq on ran in the run
  MetricSnapshot start_metrics_;
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_RUNTIME_PROFILE_H_
