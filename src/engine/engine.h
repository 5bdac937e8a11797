#ifndef SPANGLE_ENGINE_ENGINE_H_
#define SPANGLE_ENGINE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <tuple>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "codec/columnar.h"
#include "codec/frame_file.h"
#include "codec/record_codec.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "engine/block_manager.h"
#include "engine/executor_pool.h"
#include "engine/fault.h"
#include "engine/first_seen_groups.h"
#include "engine/metrics.h"
#include "engine/partitioner.h"
#include "engine/runtime_profile.h"
#include "engine/scheduler.h"
#include "engine/size_estimator.h"
#include "engine/storage_level.h"
#include "engine/trace.h"
#include "net/deployment.h"
#include "net/remote_shuffle.h"

namespace spangle {

template <typename T>
class Rdd;
template <typename K, typename V>
class PairRdd;

namespace internal {
class NodeBase;
}  // namespace internal

/// The driver-side entry point, standing in for SparkContext: owns the
/// executor pool (simulated cluster workers), the block store, and the
/// DAG scheduler. Every action submits a *job*: the scheduler reifies the
/// lineage DAG into a staged physical plan (stages cut at shuffle
/// boundaries, deduped by node id), materializes independent shuffle
/// stages concurrently, then runs the action's result stage. Every stage
/// is instrumented (wall time, task times, skew, shuffle bytes)
/// into EngineMetrics::StageStats, exportable with DumpTrace().
class Context {
 public:
  /// `num_workers` simulated executors (threads); `default_parallelism`
  /// partitions per RDD unless overridden (defaults to 2x workers).
  /// `task_overhead_us` adds a fixed cost to every task, modeling the
  /// real cluster's per-task scheduling latency (Spark pays ~ms per
  /// task, which is why tiny chunks lose in the paper's Fig. 8).
  /// `storage` configures the block store (memory budget, spill dir).
  /// `deploy` selects LOCAL (default, single-process — every pre-net test
  /// and bench runs unchanged) or DISTRIBUTED, which spawns
  /// spangle_executord daemons and moves the shuffle data plane onto
  /// them. The Context must outlive every Rdd created from it.
  explicit Context(int num_workers = 4, int default_parallelism = 0,
                   int task_overhead_us = 0, StorageOptions storage = {},
                   DeploymentOptions deploy = {});
  ~Context();

  int num_workers() const { return pool_.num_workers(); }
  int default_parallelism() const { return default_parallelism_; }
  EngineMetrics& metrics() { return metrics_; }
  BlockManager& block_manager() { return block_manager_; }

  /// Profiling hooks bound to every task thread (per-node actuals live
  /// on the nodes themselves), and the sample ring behind the trace
  /// counter tracks. Profiling is always on; the hooks cost a few relaxed
  /// atomics per *partition*, not per record.
  RuntimeProfile& profile() { return profile_; }

  /// The driver-side span ring (client RPC spans + job/stage roots).
  /// Distributed tracing is always on (DESIGN.md §14): RunJob/RunStage
  /// bind (trace_id, span_id) contexts on their threads, fleet RPCs stamp
  /// trace headers onto requests, and daemons record serve-side spans
  /// that DumpTrace merges back into one timeline.
  SpanRecorder& trace_spans() { return trace_spans_; }

  /// Fault injection: drops every cached/spilled block resident on
  /// `worker`, as if that executor process died. Cached partitions
  /// recompute from lineage on next access; lost shuffle outputs
  /// re-materialize before the next action. In DISTRIBUTED mode this
  /// additionally SIGKILLs the daemon owning worker % num_executors — a
  /// real process death, not a simulation.
  void FailExecutor(int worker);

  /// True when this context runs against executor daemons.
  bool distributed() const { return fleet_ != nullptr; }
  /// The daemon fleet (null in LOCAL mode).
  net::ExecutorFleet* fleet() { return fleet_.get(); }
  /// The remote shuffle data plane (null in LOCAL mode).
  net::RemoteShuffleFetcher* remote_shuffle() const {
    return remote_shuffle_.get();
  }

  /// Distributes `data` over `num_partitions` partitions (round-robin
  /// blocks, preserving order). The RDD analogue of sc.parallelize.
  template <typename T>
  Rdd<T> Parallelize(std::vector<T> data, int num_partitions = 0);

  /// Creates a pair RDD whose records are already placed by `partitioner`,
  /// i.e. born co-partitioned (no shuffle).
  template <typename K, typename V>
  PairRdd<K, V> ParallelizePairs(
      std::vector<std::pair<K, V>> data,
      std::shared_ptr<Partitioner<K>> partitioner);

  /// Runs fn(0..n-1) as one stage across the pool. One task per index.
  /// `name` labels the stage's StageStat record. Thread-safe: concurrent
  /// stages from different driver threads interleave over the shared
  /// workers.
  ///
  /// Fault tolerance: a task attempt that throws is retried up to
  /// `FaultToleranceOptions::max_task_retries` times with exponential
  /// backoff, one retry round after the stage barrier; each task index has
  /// at most one attempt in flight. A task that throws ShuffleBlockLostError is NOT retried — the stage
  /// aborts with that error so the job can re-run the upstream stage from
  /// lineage. Retries and job re-attempts may invoke fn more than once
  /// for the same index; fn must be deterministic per index (all engine
  /// call sites write per-index slots, which is enough).
  ///
  /// `stage_attempt` labels re-executions of the same logical stage
  /// (shuffle re-materializations, job re-attempts) in StageStat/traces
  /// and is exposed to ChaosPolicy predicates.
  void RunStage(const std::string& name, int n,
                const std::function<void(int)>& fn, int stage_attempt = 0);

  /// Submits one job for `action` over `root`: plans the lineage DAG,
  /// materializes every pending shuffle stage (independent stages
  /// concurrently), then runs fn(0..n-1) as the instrumented result stage.
  /// Survives mid-job failures: when a task discovers its shuffle input
  /// blocks were dropped (executor death), the job re-plans — stages
  /// whose output survived are skipped, lost ones re-materialize from
  /// lineage — and re-runs, up to FaultToleranceOptions::max_job_attempts
  /// times before throwing JobFailedError.
  void RunJob(internal::NodeBase* root, const std::string& action, int n,
              const std::function<void(int)>& fn);

  /// Retry knobs; read at the start of every stage and job.
  void set_fault_options(const FaultToleranceOptions& opts) {
    MutexLock lock(&fault_mu_);
    fault_options_ = opts;
  }
  FaultToleranceOptions fault_options() const {
    MutexLock lock(&fault_mu_);
    return fault_options_;
  }

  /// Installs (or clears, with nullptr) the deterministic fault-injection
  /// hooks consulted before every task attempt. Testing only.
  void set_chaos_policy(std::shared_ptr<const ChaosPolicy> policy) {
    MutexLock lock(&fault_mu_);
    chaos_ = std::move(policy);
  }
  std::shared_ptr<const ChaosPolicy> chaos_policy() const {
    MutexLock lock(&fault_mu_);
    return chaos_;
  }

  /// Builds (without executing) the staged physical plan for an action on
  /// `root` / `roots` — the structure behind Rdd::Explain().
  PhysicalPlan BuildPlan(internal::NodeBase* root,
                         const std::string& action = "collect");
  PhysicalPlan BuildPlan(const std::vector<internal::NodeBase*>& roots,
                         const std::string& action);

  /// Materializes every un-materialized shuffle dependency above the
  /// given root(s), dependencies first. Since the DAG-scheduler refactor
  /// this plans the whole sub-DAG and overlaps independent shuffle
  /// stages; the multi-root overload schedules several lineages as one
  /// job (e.g. all attributes of a SpangleArray).
  void EnsureShuffleDependencies(internal::NodeBase* node);
  void EnsureShuffleDependencies(
      const std::vector<internal::NodeBase*>& roots);

  /// Writes every retained StageStat as Chrome trace_event JSON; open the
  /// file in chrome://tracing (or https://ui.perfetto.dev) to see stage
  /// spans and per-task lanes. Returns false when the file cannot be
  /// written.
  bool DumpTrace(const std::string& path) const;

  /// Machine-readable snapshot of every registered metric (see
  /// metrics_export.h for the schema); Dump* variants write to `path`
  /// and return false when the file cannot be written.
  std::string MetricsJson() const;
  bool DumpMetricsJson(const std::string& path) const;
  /// Prometheus text exposition of the same registry ("spangle_" prefix).
  std::string MetricsPrometheus() const;
  bool DumpMetricsPrometheus(const std::string& path) const;

  Scheduler& scheduler() { return scheduler_; }

  uint64_t NextNodeId() { return next_node_id_.fetch_add(1); }

  /// Mints a fresh job id (same sequence RunJob draws from). The
  /// JobServer binds one id per served job with internal::ScopedJobId so
  /// every StageStat a job produces carries the same tenant-attributable
  /// id; RunJob reuses an ambient id instead of minting its own.
  uint64_t NextJobId() { return next_job_id_.fetch_add(1) + 1; }

  /// Microseconds since context creation — the trace/timing epoch.
  uint64_t NowMicros() const { return pool_.NowMicros(); }

 private:
  /// The job driver behind RunJob and EnsureShuffleDependencies: binds
  /// the job id (the caller's when one is bound, else a fresh one) and
  /// the job-root trace span, then plans `roots`, materializes their
  /// pending shuffles and runs `result_stage(attempt)` (null for a
  /// materialize-only job, whose `action` is ""), re-planning after a
  /// lost shuffle block up to max_job_attempts times.
  void RunPlanned(const std::vector<internal::NodeBase*>& roots,
                  const std::string& action,
                  const std::function<void(int)>& result_stage);

  ExecutorPool pool_;
  EngineMetrics metrics_;
  BlockManager block_manager_;  // after metrics_: holds a pointer to it
  RuntimeProfile profile_{&metrics_};  // after metrics_ likewise
  Scheduler scheduler_{this};
  // Driver-side span ring; before fleet_, which holds a pointer to it.
  SpanRecorder trace_spans_;
  // DISTRIBUTED mode only (null otherwise); after metrics_, which both
  // reference. The dtor shuts the fleet down before the members above go.
  std::unique_ptr<net::ExecutorFleet> fleet_;
  std::unique_ptr<net::RemoteShuffleFetcher> remote_shuffle_;
  int default_parallelism_;
  int task_overhead_us_;
  std::atomic<uint64_t> next_node_id_{0};
  std::atomic<uint64_t> next_job_id_{0};
  std::atomic<uint64_t> next_stage_seq_{0};

  // Rank kConfig: snapshot-style accessors only; nothing is acquired
  // while it is held.
  mutable Mutex fault_mu_{LockRank::kConfig, "Context::fault_mu_"};
  FaultToleranceOptions fault_options_ GUARDED_BY(fault_mu_);
  std::shared_ptr<const ChaosPolicy> chaos_ GUARDED_BY(fault_mu_);
};

namespace internal {

/// Encodes one partition into a chunk frame and credits the codec
/// counters: raw (record-format) vs encoded bytes, and encode time.
/// Every engine encode — DISTRIBUTED shuffle puts and spills — funnels
/// through here so the compression ratio the metrics report covers all
/// codec traffic.
template <typename T>
codec::EncodedFrame EncodePartitionTimed(EngineMetrics& metrics,
                                         const std::vector<T>& records) {
  const auto start = std::chrono::steady_clock::now();
  codec::EncodedFrame frame = codec::EncodePartitionFrame(records);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  metrics.codec_encode_time_us.fetch_add(static_cast<uint64_t>(us),
                                         std::memory_order_relaxed);
  metrics.codec_bytes_raw.fetch_add(frame.raw_bytes,
                                    std::memory_order_relaxed);
  metrics.codec_bytes_encoded.fetch_add(frame.bytes.size(),
                                        std::memory_order_relaxed);
  return frame;
}

/// Untyped lineage-DAG vertex: partition count + parents + shuffle hooks.
class NodeBase {
 public:
  NodeBase(Context* ctx, std::string name)
      : ctx_(ctx), id_(ctx->NextNodeId()), name_(std::move(name)) {}
  virtual ~NodeBase() = default;

  NodeBase(const NodeBase&) = delete;
  NodeBase& operator=(const NodeBase&) = delete;

  virtual int num_partitions() const = 0;
  virtual std::vector<NodeBase*> Parents() const = 0;
  virtual bool IsShuffle() const { return false; }
  virtual bool IsMaterialized() const { return true; }
  /// Computes + stores shuffle output; only meaningful for shuffle nodes.
  virtual void Materialize() {}

  Context* ctx() const { return ctx_; }
  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// This node's executed actuals, accumulated while profiling is on.
  NodeProfile& profile() { return profile_; }
  const NodeProfile& profile() const { return profile_; }

  /// Content seed for LineageDigest (below). 0 — the default — marks the
  /// node content-opaque: C++ closures cannot be hashed, so a plan only
  /// participates in digest-keyed result caching when the caller has
  /// *declared* its content by seeding every source node (and salting any
  /// operator whose lambda differs between structurally identical plans).
  uint64_t digest_seed() const {
    return digest_seed_.load(std::memory_order_relaxed);
  }
  void set_digest_seed(uint64_t seed) {
    digest_seed_.store(seed, std::memory_order_relaxed);
  }

 private:
  Context* ctx_;
  uint64_t id_;
  std::string name_;
  std::atomic<uint64_t> digest_seed_{0};
  NodeProfile profile_;
};

/// Structural content digest of the lineage DAG rooted at `node`: a
/// chained XXH64 over each node's operator name, partition count,
/// shuffle-ness, digest seed, and its parents' digests (postorder, so
/// the root digest commits to the whole DAG). Returns 0 — "not
/// cacheable" — unless every *source* (parentless) node carries a
/// nonzero digest seed: without declared source identity, two plans
/// with identical shape but different data or lambdas would collide.
/// Equal digests are the serving layer's cache key (see JobServer);
/// unequal digests never alias. Deterministic across processes for the
/// same plan shape and seeds (node ids do not participate).
uint64_t LineageDigest(const NodeBase* node);

/// Typed node: computes one partition at a time. Persistence goes through
/// the context's BlockManager: cached partitions are accounted, LRU
/// evicted under the memory budget, optionally spilled to disk, and
/// recomputed from lineage (parents) when lost.
template <typename T>
class Node : public NodeBase {
 public:
  using PartitionPtr = std::shared_ptr<const std::vector<T>>;

  using NodeBase::NodeBase;

  ~Node() override { ctx()->block_manager().DropNode(id()); }

  /// Partition contents; serves from the block store when persistence is
  /// enabled, otherwise recomputes from parents (lineage). The
  /// OperatorScope attributes rows/bytes/self-time to this node's
  /// profile when the calling thread is profiling.
  PartitionPtr GetPartition(int i) {
    prof::OperatorScope op(&profile());
    const StorageLevel level =
        storage_level_.load(std::memory_order_acquire);
    bool was_lost = false;
    if (level != StorageLevel::kNone) {
      auto r = ctx()->block_manager().Get({id(), i});
      if (r.data != nullptr) {
        ctx()->metrics().cache_hits.fetch_add(1);
        auto part = std::static_pointer_cast<const std::vector<T>>(r.data);
        if (op.active()) op.FinishCached(part->size());
        return part;
      }
      ctx()->metrics().cache_misses.fetch_add(1);
      was_lost = r.was_lost;
    }
    auto computed =
        std::make_shared<const std::vector<T>>(ComputePartition(i));
    if (op.active()) {
      op.FinishComputed(computed->size(), EstimateSize(*computed));
    }
    if (level != StorageLevel::kNone) {
      if (was_lost) ctx()->metrics().recomputed_partitions.fetch_add(1);
      StoreBlock(i, computed, level, /*recomputable=*/true);
    }
    return computed;
  }

  /// Marks this node's partitions for persistence (rdd.persist(level)).
  /// Disk-backed levels need a spillable record type; otherwise they
  /// degrade to MEMORY_ONLY (lineage recompute) with a warning.
  void EnableCache(StorageLevel level = StorageLevel::kMemoryOnly) {
    if (level == StorageLevel::kNone) level = StorageLevel::kMemoryOnly;
    if constexpr (!codec::kSpillable<T>) {
      if (level != StorageLevel::kMemoryOnly) {
        SPANGLE_LOG(Warning)
            << "storage level " << ToString(level) << " on node '" << name()
            << "' needs a spillable record type; using MEMORY_ONLY";
        level = StorageLevel::kMemoryOnly;
      }
    }
    storage_level_.store(level, std::memory_order_release);
  }

  bool cache_enabled() const {
    return storage_level_.load(std::memory_order_acquire) !=
           StorageLevel::kNone;
  }
  StorageLevel storage_level() const {
    return storage_level_.load(std::memory_order_acquire);
  }

 protected:
  virtual std::vector<T> ComputePartition(int i) = 0;

  /// Hands one partition to the BlockManager. `recomputable` is false
  /// for shuffle outputs, whose loss is repaired by re-materializing
  /// the whole shuffle rather than per-partition lineage recompute.
  /// Put-if-absent: when one partition is computed more than once (task
  /// retries, partial shuffle reruns, concurrent jobs over a shared
  /// node), the first committed payload wins and the later one is
  /// discarded — the commit is idempotent, so duplicated work never
  /// changes state.
  void StoreBlock(int i, PartitionPtr data, StorageLevel level,
                  bool recomputable) {
    const uint64_t bytes = EstimateSize(*data);
    ctx()->block_manager().PutIfAbsent({id(), i}, std::move(data), bytes,
                                       level, MakeSpillFn(), MakeLoadFn(),
                                       recomputable);
  }

  /// Spills encode through the chunk-frame codec (same bytes a shuffle
  /// block has on the wire) and credit the codec counters; non-static so
  /// the closure can reach this context's metrics. A failed write is
  /// returned to the BlockManager, which keeps or drops the block.
  BlockManager::SpillFn MakeSpillFn() {
    if constexpr (codec::kSpillable<T>) {
      EngineMetrics* metrics = &ctx()->metrics();
      return [metrics](const void* data,
                       const std::string& path) -> Result<uint64_t> {
        const codec::EncodedFrame frame = EncodePartitionTimed(
            *metrics, *static_cast<const std::vector<T>*>(data));
        return codec::WriteWholeFile(frame.bytes, path);
      };
    } else {
      return nullptr;
    }
  }

  static BlockManager::LoadFn MakeLoadFn() {
    if constexpr (codec::kSpillable<T>) {
      return [](const std::string& path)
                 -> Result<BlockManager::DataPtr> {
        auto records = codec::ReadPartitionFile<T>(path);
        SPANGLE_RETURN_NOT_OK(records.status());
        return BlockManager::DataPtr(
            std::make_shared<const std::vector<T>>(*std::move(records)));
      };
    } else {
      return nullptr;
    }
  }

 private:
  std::atomic<StorageLevel> storage_level_{StorageLevel::kNone};
};

/// Source node: data distributed at construction time.
template <typename T>
class SourceNode final : public Node<T> {
 public:
  SourceNode(Context* ctx, std::vector<std::vector<T>> partitions)
      : Node<T>(ctx, "source"), partitions_(std::move(partitions)) {}

  int num_partitions() const override {
    return static_cast<int>(partitions_.size());
  }
  std::vector<NodeBase*> Parents() const override { return {}; }

 protected:
  std::vector<T> ComputePartition(int i) override { return partitions_[i]; }

 private:
  std::vector<std::vector<T>> partitions_;
};

/// Narrow one-to-one transformation over whole partitions; map/filter/
/// flatMap are thin wrappers around this.
template <typename Out, typename In>
class MapPartitionsNode final : public Node<Out> {
 public:
  using Fn = std::function<std::vector<Out>(int, const std::vector<In>&)>;

  MapPartitionsNode(Context* ctx, std::shared_ptr<Node<In>> parent, Fn fn,
                    std::string name)
      : Node<Out>(ctx, std::move(name)),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  int num_partitions() const override { return parent_->num_partitions(); }
  std::vector<NodeBase*> Parents() const override { return {parent_.get()}; }

 protected:
  std::vector<Out> ComputePartition(int i) override {
    auto in = parent_->GetPartition(i);
    return fn_(i, *in);
  }

 private:
  std::shared_ptr<Node<In>> parent_;
  Fn fn_;
};

/// Narrow two-parent transformation over aligned partitions (both parents
/// must have equal partition counts). Powers the shuffle-free local join.
template <typename Out, typename A, typename B>
class ZipPartitionsNode final : public Node<Out> {
 public:
  using Fn = std::function<std::vector<Out>(int, const std::vector<A>&,
                                            const std::vector<B>&)>;

  ZipPartitionsNode(Context* ctx, std::shared_ptr<Node<A>> left,
                    std::shared_ptr<Node<B>> right, Fn fn, std::string name)
      : Node<Out>(ctx, std::move(name)),
        left_(std::move(left)),
        right_(std::move(right)),
        fn_(std::move(fn)) {
    SPANGLE_CHECK_EQ(left_->num_partitions(), right_->num_partitions());
  }

  int num_partitions() const override { return left_->num_partitions(); }
  std::vector<NodeBase*> Parents() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  std::vector<Out> ComputePartition(int i) override {
    auto a = left_->GetPartition(i);
    auto b = right_->GetPartition(i);
    return fn_(i, *a, *b);
  }

 private:
  std::shared_ptr<Node<A>> left_;
  std::shared_ptr<Node<B>> right_;
  Fn fn_;
};

/// Concatenation of two RDDs' partition lists (narrow).
template <typename T>
class UnionNode final : public Node<T> {
 public:
  UnionNode(Context* ctx, std::shared_ptr<Node<T>> left,
            std::shared_ptr<Node<T>> right)
      : Node<T>(ctx, "union"), left_(std::move(left)), right_(std::move(right)) {}

  int num_partitions() const override {
    return left_->num_partitions() + right_->num_partitions();
  }
  std::vector<NodeBase*> Parents() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  std::vector<T> ComputePartition(int i) override {
    const int nl = left_->num_partitions();
    auto p = (i < nl) ? left_->GetPartition(i)
                      : right_->GetPartition(i - nl);
    return *p;
  }

 private:
  std::shared_ptr<Node<T>> left_;
  std::shared_ptr<Node<T>> right_;
};

/// Wide dependency: repartitions key-value records by `partitioner`, with
/// optional map-side + reduce-side combining (reduceByKey). Materialize()
/// runs the map side as one parallel stage, buckets records, and accounts
/// every moved byte in EngineMetrics — the quantity the paper's
/// optimizations (local join, metadata transpose, MaskRDD) all attack.
/// Output partition r reads its buckets from map partition 0 to n-1, each
/// in record order: uncombined records keep that order, and combined keys
/// come in the order they first appear in it.
template <typename K, typename V>
class ShuffleNode final : public Node<std::pair<K, V>> {
 public:
  using Record = std::pair<K, V>;
  using Combiner = std::function<V(const V&, const V&)>;

  ShuffleNode(Context* ctx, std::shared_ptr<Node<Record>> parent,
              std::shared_ptr<Partitioner<K>> partitioner, Combiner combiner,
              std::string name)
      : Node<Record>(ctx, std::move(name)),
        parent_(std::move(parent)),
        partitioner_(std::move(partitioner)),
        combiner_(std::move(combiner)) {}

  int num_partitions() const override {
    return partitioner_->num_partitions();
  }
  std::vector<NodeBase*> Parents() const override { return {parent_.get()}; }
  bool IsShuffle() const override { return true; }

  /// Materialized = every output block is still available (in memory or
  /// spilled; on its owner daemon in DISTRIBUTED mode). Executor failures
  /// make this false again, which re-runs the shuffle before the next
  /// action (Spark's stage retry).
  bool IsMaterialized() const override {
    {
      MutexLock lock(&mu_);
      if (!materialized_) return false;
    }
    if constexpr (codec::kSpillable<Record>) {
      if (this->ctx()->distributed()) {
        return this->ctx()->remote_shuffle()->ContainsAll(this->id(),
                                                          num_partitions());
      }
    }
    return this->ctx()->block_manager().ContainsAll(this->id(),
                                                    num_partitions());
  }

  void Materialize() override {
    if (IsMaterialized()) return;
    Context* ctx = this->ctx();
    // Count lifetime materializations: attempt > 0 means this stage's
    // output was lost (executor failure / eviction) and lineage is
    // re-running it — Spark's stage rerun.
    int attempt;
    {
      MutexLock lock(&mu_);
      attempt = materialize_attempts_++;
    }
    if (attempt > 0) ctx->metrics().stage_reruns.fetch_add(1);
    const int n_map = parent_->num_partitions();
    const int n_out = partitioner_->num_partitions();
    // Map side: one task per input partition produces n_out buckets.
    std::vector<std::vector<std::vector<Record>>> map_outputs(n_map);
    ctx->RunStage(this->name() + "/map", n_map, [&](int m) {
      auto in = parent_->GetPartition(m);
      auto& buckets = map_outputs[m];
      buckets.resize(n_out);
      uint64_t bytes = 0;
      const auto place = [&](auto&& rec) {
        bytes += EstimateSize(rec);
        buckets[partitioner_->PartitionFor(rec.first)].push_back(
            std::forward<decltype(rec)>(rec));
      };
      size_t records = in->size();
      if (combiner_) {
        // Map-side combine, as Spark does for reduceByKey.
        FirstSeenGroups<K, V> acc;
        for (const auto& [k, v] : *in) acc.Fold(k, v, combiner_);
        std::vector<Record> combined = acc.Take();
        records = combined.size();
        for (Record& rec : combined) place(std::move(rec));
      } else {
        for (const Record& rec : *in) place(rec);
      }
      ctx->metrics().AddShuffleRecords(records);
      ctx->metrics().AddShuffleBytes(bytes);
    }, attempt);
    // Reduce side: task r merges its buckets (combining when requested)
    // and commits output partition r itself, so encode and store run in
    // parallel across the pool instead of in a serial driver loop. Each
    // bucket is taken, not borrowed, so its memory goes once merged. A
    // later attempt of task r (a task retry after a throwing combiner)
    // would rebuild r from drained buckets, so it escalates to a lineage
    // re-plan instead.
    std::vector<std::atomic<bool>> drained(static_cast<size_t>(n_out));
    ctx->RunStage(this->name() + "/reduce", n_out, [&](int r) {
      if (drained[static_cast<size_t>(r)].exchange(true)) {
        throw ShuffleBlockLostError({this->id()});
      }
      std::vector<Record> out;
      if (combiner_) {
        FirstSeenGroups<K, V> acc;
        for (int m = 0; m < n_map; ++m) {
          std::vector<Record> bucket = std::move(map_outputs[m][r]);
          for (auto& [k, v] : bucket) acc.Fold(k, std::move(v), combiner_);
        }
        out = acc.Take();
      } else {
        size_t total = 0;
        for (int m = 0; m < n_map; ++m) total += map_outputs[m][r].size();
        out.reserve(total);
        for (int m = 0; m < n_map; ++m) {
          std::vector<Record> bucket = std::move(map_outputs[m][r]);
          out.insert(out.end(), std::make_move_iterator(bucket.begin()),
                     std::make_move_iterator(bucket.end()));
        }
      }
      Commit(r, std::move(out));
    }, attempt);
    ctx->metrics().shuffles.fetch_add(1);
    MutexLock lock(&mu_);
    materialized_ = true;
  }

 protected:
  std::vector<Record> ComputePartition(int i) override {
    if constexpr (codec::kSpillable<Record>) {
      if (this->ctx()->distributed()) {
        auto frame = this->ctx()->remote_shuffle()->FetchEncoded(this->id(), i);
        if (!frame.has_value()) {
          // The owner daemon died (or restarted empty) after this job was
          // planned — or the fetched frame failed content-hash validation
          // (wire corruption). Same recovery as a local fetch failure
          // below.
          throw ShuffleBlockLostError({this->id()});
        }
        // FetchEncoded hashed the frame once already; do not again.
        auto records = codec::DecodePartitionFrame<Record>(
            frame->data(), frame->size(), /*verify_hash=*/false);
        if (!records.ok()) {
          // A structurally corrupt frame that still hash-validated can
          // only come from a damaged daemon store; treat it as a lost
          // block so lineage re-materializes instead of crashing.
          throw ShuffleBlockLostError({this->id()});
        }
        return *std::move(records);
      }
    }
    auto r = this->ctx()->block_manager().Get({this->id(), i});
    if (r.data == nullptr) {
      // Fetch failure: this shuffle's output was dropped after the job
      // was planned (executor death mid-job). Not task-retryable — the
      // running job must re-materialize this stage from lineage first.
      throw ShuffleBlockLostError({this->id()});
    }
    return *std::static_pointer_cast<const std::vector<Record>>(r.data);
  }

 private:
  /// Stores output partition r from inside its reduce task. The records
  /// were moved out of the map buckets, so a failed store must never be
  /// settled by another attempt of the task (it would rebuild from
  /// moved-from buckets): it throws ShuffleBlockLostError and the job
  /// re-plans the whole shuffle from lineage.
  void Commit(int r, std::vector<Record> records) {
    Context* ctx = this->ctx();
    // An unspillable record type stays pinned in memory (cannot spill,
    // cannot be recomputed partition-by-partition mid-action).
    StorageLevel level = StorageLevel::kMemoryOnly;
    if constexpr (codec::kSpillable<Record>) {
      if (ctx->distributed()) {
        // DISTRIBUTED data plane: the frame is shipped verbatim to the
        // owner daemon; nothing stays in the driver. The content hash
        // travels with it (daemon-side dedup + receipt validation).
        codec::EncodedFrame frame =
            EncodePartitionTimed(ctx->metrics(), records);
        std::vector<Record>().swap(records);  // the put needs only the frame
        const auto chaos = ctx->chaos_policy();
        const Status st =
            chaos != nullptr && chaos->fail_store &&
                    chaos->fail_store(this->id(), r)
                ? Status::IOError("shuffle store refused by chaos policy")
                : ctx->remote_shuffle()->StoreEncoded(
                      this->id(), r, frame.bytes, frame.content_hash);
        if (!st.ok()) {
          SPANGLE_LOG(Warning) << "shuffle store of (" << this->id() << ", "
                               << r << ") failed: " << st.ToString();
          throw ShuffleBlockLostError({this->id()});
        }
        return;
      }
      // LOCAL: the records live in the block store like any cached
      // partition — accounted against the budget, encoded only if they
      // spill to disk.
      level = StorageLevel::kMemoryAndDisk;
    }
    this->StoreBlock(
        r, std::make_shared<const std::vector<Record>>(std::move(records)),
        level, /*recomputable=*/false);
  }

  std::shared_ptr<Node<Record>> parent_;
  std::shared_ptr<Partitioner<K>> partitioner_;
  Combiner combiner_;

  // Rank kShuffleNode: released before ContainsAll / RunStage, so no
  // other engine lock is ever taken while it is held.
  mutable Mutex mu_{LockRank::kShuffleNode, "ShuffleNode::mu_"};
  bool materialized_ GUARDED_BY(mu_) = false;
  int materialize_attempts_ GUARDED_BY(mu_) = 0;
};

}  // namespace internal

/// Handle to a distributed collection of T (the RDD abstraction).
/// Transformations are lazy: they extend the lineage DAG; only actions
/// (Collect/Count/Fold/...) trigger execution.
template <typename T>
class Rdd {
 public:
  using PartitionPtr = typename internal::Node<T>::PartitionPtr;

  Rdd() = default;
  explicit Rdd(std::shared_ptr<internal::Node<T>> node)
      : node_(std::move(node)) {}

  internal::Node<T>* node() const { return node_.get(); }
  std::shared_ptr<internal::Node<T>> node_ptr() const { return node_; }
  Context* ctx() const { return node_->ctx(); }
  int num_partitions() const { return node_->num_partitions(); }

  /// Element-wise transformation.
  template <typename Fn, typename Out = std::invoke_result_t<Fn, const T&>>
  Rdd<Out> Map(Fn fn) const {
    return MapPartitionsWithIndex<Out>(
        [fn = std::move(fn)](int, const std::vector<T>& in) {
          std::vector<Out> out;
          out.reserve(in.size());
          for (const auto& v : in) out.push_back(fn(v));
          return out;
        },
        "map");
  }

  /// Keeps elements satisfying `pred`.
  template <typename Pred>
  Rdd<T> Filter(Pred pred) const {
    return MapPartitionsWithIndex<T>(
        [pred = std::move(pred)](int, const std::vector<T>& in) {
          std::vector<T> out;
          for (const auto& v : in) {
            if (pred(v)) out.push_back(v);
          }
          return out;
        },
        "filter");
  }

  /// Element-to-many transformation.
  template <typename Fn,
            typename OutVec = std::invoke_result_t<Fn, const T&>,
            typename Out = typename OutVec::value_type>
  Rdd<Out> FlatMap(Fn fn) const {
    return MapPartitionsWithIndex<Out>(
        [fn = std::move(fn)](int, const std::vector<T>& in) {
          std::vector<Out> out;
          for (const auto& v : in) {
            for (auto& o : fn(v)) out.push_back(std::move(o));
          }
          return out;
        },
        "flatMap");
  }

  /// Whole-partition transformation; fn(partition_index, records).
  template <typename Out>
  Rdd<Out> MapPartitionsWithIndex(
      std::function<std::vector<Out>(int, const std::vector<T>&)> fn,
      std::string name = "mapPartitions") const {
    return Rdd<Out>(std::make_shared<internal::MapPartitionsNode<Out, T>>(
        ctx(), node_, std::move(fn), std::move(name)));
  }

  /// Aligned two-RDD partition-wise transformation (narrow; both sides
  /// must have equal partition counts).
  template <typename Out, typename B>
  Rdd<Out> ZipPartitions(
      const Rdd<B>& other,
      std::function<std::vector<Out>(int, const std::vector<T>&,
                                     const std::vector<B>&)>
          fn,
      std::string name = "zipPartitions") const {
    return Rdd<Out>(std::make_shared<internal::ZipPartitionsNode<Out, T, B>>(
        ctx(), node_, other.node_ptr(), std::move(fn), std::move(name)));
  }

  /// Concatenates two RDDs (narrow).
  Rdd<T> Union(const Rdd<T>& other) const {
    return Rdd<T>(std::make_shared<internal::UnionNode<T>>(ctx(), node_,
                                                           other.node_ptr()));
  }

  /// Bernoulli sample: keeps each record with probability `fraction`.
  /// Deterministic for a given (seed, partitioning). The per-partition
  /// stream is seeded with MixSeeds(seed, partition) — both inputs pass
  /// through SplitMix64, so distinct (seed, partition) pairs cannot
  /// collide by simple arithmetic (the old affine seed*K+idx scheme let
  /// different pairs land on the same generator state).
  Rdd<T> Sample(double fraction, uint64_t seed) const {
    return MapPartitionsWithIndex<T>(
        [fraction, seed](int idx, const std::vector<T>& in) {
          Rng rng(MixSeeds(seed, static_cast<uint64_t>(idx)));
          std::vector<T> out;
          for (const auto& v : in) {
            if (rng.NextBool(fraction)) out.push_back(v);
          }
          return out;
        },
        "sample");
  }

  /// Unique records (one shuffle). Requires std::hash<T> and ==.
  Rdd<T> Distinct() const {
    auto keyed = Map([](const T& v) { return std::pair<T, char>(v, 0); });
    auto p = std::make_shared<HashPartitioner<T>>(num_partitions());
    auto deduped = std::make_shared<internal::ShuffleNode<T, char>>(
        ctx(), keyed.node_ptr(), p,
        [](const char& a, const char&) { return a; }, "distinct");
    return Rdd<std::pair<T, char>>(deduped).template Map(
        [](const std::pair<T, char>& kv) { return kv.first; });
  }

  /// Marks this RDD's partitions for persistence (rdd.persist(level)):
  /// MEMORY_ONLY recomputes evicted partitions from lineage,
  /// MEMORY_AND_DISK spills them to disk and reads them back, DISK_ONLY
  /// streams every access from disk.
  Rdd<T>& Cache(StorageLevel level = StorageLevel::kMemoryOnly) {
    node_->EnableCache(level);
    return *this;
  }

  /// Declares this node's content identity for the lineage-digest result
  /// cache (JobServer): seed every source RDD (and salt any operator
  /// whose lambda differs between structurally identical plans) and
  /// identical sub-plans submitted by different sessions share one
  /// cached result. See internal::LineageDigest for the contract.
  Rdd<T>& WithDigestSeed(uint64_t seed) {
    node_->set_digest_seed(seed);
    return *this;
  }

  /// This plan's digest (0 = not cacheable; some source is unseeded).
  uint64_t LineageDigest() const {
    return internal::LineageDigest(node_.get());
  }

  // ---- Introspection ----

  /// Human-readable staged physical plan for running `action` on this
  /// RDD: stages cut at shuffle boundaries, dependency edges, and how
  /// many independent shuffle stages could overlap. Does not execute.
  std::string Explain(const std::string& action = "collect") const {
    return ctx()->BuildPlan(node_.get(), action).ToString();
  }

  /// EXECUTES `action` and returns the static plan annotated with this
  /// run's actuals: per-node rows/bytes/self-time, cache hits, and the
  /// chunk-mode / density / mode-transition stats the array layer
  /// reported (Spark SQL's "explain analyze"). Scoped to this run via
  /// snapshot diffs, so shared or cached lineage reports only what this
  /// query executed.
  AnalyzedPlan ExplainAnalyzePlan(
      const std::string& action = "collect") const {
    ProfiledRun run(ctx(), {node_.get()}, action);
    CollectPartitionPtrs(action);
    return run.Finish();
  }
  std::string ExplainAnalyze(const std::string& action = "collect") const {
    return ExplainAnalyzePlan(action).ToString();
  }

  // ---- Actions (trigger execution) ----

  /// All records, concatenated in partition order.
  std::vector<T> Collect() const {
    auto parts = CollectPartitionPtrs("collect");
    size_t total = 0;
    for (const auto& p : parts) total += p->size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& p : parts) out.insert(out.end(), p->begin(), p->end());
    return out;
  }

  /// Per-partition contents as shared pointers — no copy for cached (or
  /// freshly computed) partitions; the blocks stay alive as long as the
  /// returned pointers do. Prefer this over CollectPartitions when the
  /// caller only reads.
  std::vector<PartitionPtr> CollectPartitionPtrs(
      const std::string& action = "collectPartitions") const {
    const int n = num_partitions();
    std::vector<PartitionPtr> parts(n);
    ctx()->RunJob(node_.get(), action, n,
                  [&](int i) { parts[i] = node_->GetPartition(i); });
    return parts;
  }

  /// Per-partition record vectors (copying; kept for callers that mutate).
  std::vector<std::vector<T>> CollectPartitions() const {
    auto ptrs = CollectPartitionPtrs();
    std::vector<std::vector<T>> parts(ptrs.size());
    for (size_t i = 0; i < ptrs.size(); ++i) parts[i] = *ptrs[i];
    return parts;
  }

  /// Number of records.
  size_t Count() const {
    auto parts = CollectPartitionPtrs("count");
    size_t total = 0;
    for (const auto& p : parts) total += p->size();
    return total;
  }

  /// Parallel reduce with an associative, commutative `fn`; `identity`
  /// must be fn's neutral element. Returns `identity` on an empty RDD.
  template <typename Fn>
  T Reduce(T identity, Fn fn) const {
    return Aggregate<T>(std::move(identity), fn, fn);
  }

  /// Parallel fold with distinct element-combine and accumulator-merge.
  template <typename Acc, typename SeqFn, typename MergeFn>
  Acc Aggregate(Acc init, SeqFn seq, MergeFn merge) const {
    const int n = num_partitions();
    std::vector<Acc> accs(n, init);
    ctx()->RunJob(node_.get(), "aggregate", n, [&](int i) {
      auto part = node_->GetPartition(i);
      Acc acc = init;
      for (const auto& v : *part) acc = seq(std::move(acc), v);
      accs[i] = std::move(acc);
    });
    Acc total = init;
    for (auto& a : accs) total = merge(std::move(total), std::move(a));
    return total;
  }

  /// Runs `fn(partition_index, records)` once per partition, in parallel.
  void ForEachPartition(
      const std::function<void(int, const std::vector<T>&)>& fn) const {
    ctx()->RunJob(node_.get(), "forEachPartition", num_partitions(),
                  [&](int i) { fn(i, *node_->GetPartition(i)); });
  }

 private:
  std::shared_ptr<internal::Node<T>> node_;
};

/// Key-value RDD handle. Carries an optional partitioner: when set, the
/// records are guaranteed to be placed by it, enabling shuffle-free local
/// joins between co-partitioned RDDs (paper Sec. VI-A).
template <typename K, typename V>
class PairRdd {
 public:
  using Record = std::pair<K, V>;

  PairRdd() = default;
  explicit PairRdd(Rdd<Record> rdd,
                   std::shared_ptr<Partitioner<K>> partitioner = nullptr)
      : rdd_(std::move(rdd)), partitioner_(std::move(partitioner)) {}

  const Rdd<Record>& AsRdd() const { return rdd_; }
  Context* ctx() const { return rdd_.ctx(); }
  int num_partitions() const { return rdd_.num_partitions(); }
  const std::shared_ptr<Partitioner<K>>& partitioner() const {
    return partitioner_;
  }

  PairRdd<K, V>& Cache(StorageLevel level = StorageLevel::kMemoryOnly) {
    rdd_.Cache(level);
    return *this;
  }

  /// See Rdd::WithDigestSeed / internal::LineageDigest.
  PairRdd<K, V>& WithDigestSeed(uint64_t seed) {
    rdd_.WithDigestSeed(seed);
    return *this;
  }
  uint64_t LineageDigest() const { return rdd_.LineageDigest(); }

  /// Staged physical plan dump (see Rdd::Explain).
  std::string Explain(const std::string& action = "collect") const {
    return rdd_.Explain(action);
  }

  /// Executed-plan profile (see Rdd::ExplainAnalyze).
  AnalyzedPlan ExplainAnalyzePlan(
      const std::string& action = "collect") const {
    return rdd_.ExplainAnalyzePlan(action);
  }
  std::string ExplainAnalyze(const std::string& action = "collect") const {
    return rdd_.ExplainAnalyze(action);
  }

  /// Value-only transformation; preserves partitioning.
  template <typename Fn, typename W = std::invoke_result_t<Fn, const V&>>
  PairRdd<K, W> MapValues(Fn fn) const {
    auto out = rdd_.template Map(
        [fn = std::move(fn)](const Record& r) {
          return std::pair<K, W>(r.first, fn(r.second));
        });
    return PairRdd<K, W>(std::move(out), partitioner_);
  }

  /// Record-level filter; preserves partitioning.
  template <typename Pred>
  PairRdd<K, V> Filter(Pred pred) const {
    return PairRdd<K, V>(rdd_.Filter(std::move(pred)), partitioner_);
  }

  /// Re-places records by `p` (one shuffle), after which the result is
  /// co-partitioned with anything else partitioned by an equal `p`.
  PairRdd<K, V> PartitionBy(std::shared_ptr<Partitioner<K>> p) const {
    auto node = std::make_shared<internal::ShuffleNode<K, V>>(
        ctx(), rdd_.node_ptr(), p, nullptr, "partitionBy");
    return PairRdd<K, V>(Rdd<Record>(node), p);
  }

  /// Shuffle + combine values per key (map-side combine included). Each
  /// output partition lists its keys in first-seen order: as they first
  /// appear reading the map partitions from 0 to n-1, each in record
  /// order; a key's values are combined in that order too.
  PairRdd<K, V> ReduceByKey(std::function<V(const V&, const V&)> fn,
                            std::shared_ptr<Partitioner<K>> p = nullptr) const {
    if (p == nullptr) p = DefaultPartitioner();
    auto node = std::make_shared<internal::ShuffleNode<K, V>>(
        ctx(), rdd_.node_ptr(), p, std::move(fn), "reduceByKey");
    return PairRdd<K, V>(Rdd<Record>(node), p);
  }

  /// Shuffle + gather all values per key. Keys come in the order they
  /// first appear in the placed partition (ReduceByKey's order, when a
  /// shuffle places it), each with its values in that order.
  PairRdd<K, std::vector<V>> GroupByKey(
      std::shared_ptr<Partitioner<K>> p = nullptr) const {
    if (p == nullptr) p = DefaultPartitioner();
    PairRdd<K, V> placed = PlacedBy(p);
    auto grouped = placed.AsRdd().template MapPartitionsWithIndex<
        std::pair<K, std::vector<V>>>(
        [](int, const std::vector<Record>& in) {
          internal::FirstSeenGroups<K, std::vector<V>> groups;
          for (const auto& [k, v] : in) groups[k].push_back(v);
          return groups.Take();
        },
        "groupByKey");
    return PairRdd<K, std::vector<V>>(std::move(grouped), p);
  }

  /// Inner join. When both sides are co-partitioned by an equal
  /// partitioner this is the *local join*: a narrow per-partition hash
  /// join with zero shuffle (paper Sec. VI-A). Otherwise both sides are
  /// shuffled to a common partitioner first.
  template <typename W>
  PairRdd<K, std::pair<V, W>> Join(const PairRdd<K, W>& other) const {
    auto [left, right, p] = AlignWith(other);
    auto joined = left.AsRdd().template ZipPartitions<
        std::pair<K, std::pair<V, W>>, std::pair<K, W>>(
        right.AsRdd(),
        [](int, const std::vector<Record>& a,
           const std::vector<std::pair<K, W>>& b) {
          std::unordered_multimap<K, const V*> index;
          index.reserve(a.size());
          for (const auto& [k, v] : a) index.emplace(k, &v);
          std::vector<std::pair<K, std::pair<V, W>>> out;
          for (const auto& [k, w] : b) {
            auto range = index.equal_range(k);
            for (auto it = range.first; it != range.second; ++it) {
              out.emplace_back(k, std::pair<V, W>(*it->second, w));
            }
          }
          return out;
        },
        "join");
    return PairRdd<K, std::pair<V, W>>(std::move(joined), p);
  }

  /// Full cogroup: for every key present on either side, the vectors of
  /// values from both sides. Keys come in the order they first appear in
  /// the left partition, then in the right one.
  template <typename W>
  PairRdd<K, std::pair<std::vector<V>, std::vector<W>>> CoGroup(
      const PairRdd<K, W>& other) const {
    auto [left, right, p] = AlignWith(other);
    using Out = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;
    auto grouped = left.AsRdd().template ZipPartitions<Out, std::pair<K, W>>(
        right.AsRdd(),
        [](int, const std::vector<Record>& a,
           const std::vector<std::pair<K, W>>& b) {
          internal::FirstSeenGroups<K, typename Out::second_type> groups;
          for (const auto& [k, v] : a) groups[k].first.push_back(v);
          for (const auto& [k, w] : b) groups[k].second.push_back(w);
          return groups.Take();
        },
        "cogroup");
    return PairRdd<K, std::pair<std::vector<V>, std::vector<W>>>(
        std::move(grouped), p);
  }

  /// Values for `key`. With a partitioner set, computes only the one
  /// partition that can hold the key — the trick the SGD sampler uses with
  /// Eq. 2's reversible ids (no shuffle, no full scan).
  std::vector<V> Lookup(const K& key) const {
    ctx()->EnsureShuffleDependencies(rdd_.node());
    std::vector<V> out;
    if (partitioner_ != nullptr) {
      const int p = partitioner_->PartitionFor(key);
      auto part = rdd_.node()->GetPartition(p);
      for (const auto& [k, v] : *part) {
        if (k == key) out.push_back(v);
      }
      ctx()->metrics().tasks_run.fetch_add(1);
      return out;
    }
    for (const auto& [k, v] : rdd_.Collect()) {
      if (k == key) out.push_back(v);
    }
    return out;
  }

  std::vector<Record> Collect() const { return rdd_.Collect(); }
  size_t Count() const { return rdd_.Count(); }

  std::unordered_map<K, V> CollectAsMap() const {
    std::unordered_map<K, V> out;
    for (auto& [k, v] : rdd_.Collect()) out.emplace(std::move(k), std::move(v));
    return out;
  }

  Rdd<K> Keys() const {
    return rdd_.template Map([](const Record& r) { return r.first; });
  }
  Rdd<V> Values() const {
    return rdd_.template Map([](const Record& r) { return r.second; });
  }

 private:
  std::shared_ptr<Partitioner<K>> DefaultPartitioner() const {
    if (partitioner_ != nullptr) return partitioner_;
    return std::make_shared<HashPartitioner<K>>(
        std::max(num_partitions(), 1));
  }

  /// This RDD placed by `p`: a no-op when already co-partitioned.
  PairRdd<K, V> PlacedBy(const std::shared_ptr<Partitioner<K>>& p) const {
    if (partitioner_ != nullptr && partitioner_->Equals(*p)) return *this;
    return PartitionBy(p);
  }

  /// Aligns two pair RDDs onto one partitioner, shuffling only the sides
  /// that are not already co-partitioned.
  template <typename W>
  std::tuple<PairRdd<K, V>, PairRdd<K, W>, std::shared_ptr<Partitioner<K>>>
  AlignWith(const PairRdd<K, W>& other) const {
    std::shared_ptr<Partitioner<K>> p;
    if (partitioner_ != nullptr && other.partitioner() != nullptr &&
        partitioner_->Equals(*other.partitioner())) {
      p = partitioner_;
    } else if (partitioner_ != nullptr) {
      p = partitioner_;
    } else if (other.partitioner() != nullptr) {
      p = other.partitioner();
    } else {
      p = std::make_shared<HashPartitioner<K>>(
          std::max(num_partitions(), other.num_partitions()));
    }
    PairRdd<K, V> left = PlacedBy(p);
    PairRdd<K, W> right = other.PlacedBy(p);
    return {std::move(left), std::move(right), p};
  }

  template <typename, typename>
  friend class PairRdd;

  Rdd<Record> rdd_;
  std::shared_ptr<Partitioner<K>> partitioner_;
};

/// Wraps an Rdd of pairs into a PairRdd handle (no data movement).
template <typename K, typename V>
PairRdd<K, V> ToPair(Rdd<std::pair<K, V>> rdd,
                     std::shared_ptr<Partitioner<K>> partitioner = nullptr) {
  return PairRdd<K, V>(std::move(rdd), std::move(partitioner));
}

// ---- Context template definitions ----

template <typename T>
Rdd<T> Context::Parallelize(std::vector<T> data, int num_partitions) {
  if (num_partitions <= 0) num_partitions = default_parallelism_;
  const size_t n = data.size();
  std::vector<std::vector<T>> parts(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    const size_t begin = n * p / num_partitions;
    const size_t end = n * (p + 1) / num_partitions;
    parts[p].reserve(end - begin);
    for (size_t i = begin; i < end; ++i) parts[p].push_back(std::move(data[i]));
  }
  return Rdd<T>(
      std::make_shared<internal::SourceNode<T>>(this, std::move(parts)));
}

template <typename K, typename V>
PairRdd<K, V> Context::ParallelizePairs(
    std::vector<std::pair<K, V>> data,
    std::shared_ptr<Partitioner<K>> partitioner) {
  const int np = partitioner->num_partitions();
  std::vector<std::vector<std::pair<K, V>>> parts(np);
  for (auto& rec : data) {
    parts[partitioner->PartitionFor(rec.first)].push_back(std::move(rec));
  }
  auto node = std::make_shared<internal::SourceNode<std::pair<K, V>>>(
      this, std::move(parts));
  return PairRdd<K, V>(Rdd<std::pair<K, V>>(node), std::move(partitioner));
}

}  // namespace spangle

#endif  // SPANGLE_ENGINE_ENGINE_H_
