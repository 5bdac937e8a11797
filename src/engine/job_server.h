#ifndef SPANGLE_ENGINE_JOB_SERVER_H_
#define SPANGLE_ENGINE_JOB_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/engine.h"
#include "engine/result_cache.h"
#include "engine/size_estimator.h"

namespace spangle {

/// Admission estimate for materializing `root`'s plan: per node, its
/// profile when the node has executed before (mean bytes_out per
/// invocation × partitions — re-submitting a served plan gets real
/// numbers), else `default_per_partition` × partitions. Already-cached
/// shuffle outputs still count (conservative).
uint64_t EstimateJobBytes(internal::NodeBase* root,
                          uint64_t default_per_partition = 64 * 1024);

/// Multi-tenant serving front door for a Context.
///
/// Many sessions submit jobs concurrently; the server queues each job on
/// its session's FIFO and a small pool of dispatcher threads drains the
/// queues with three policies layered on top:
///
///  - **Fair share**: dispatchers pick the next job by weighted
///    round-robin over sessions — a session of weight w gets w
///    consecutive dispatch slots per cycle, so no tenant starves behind a
///    firehose neighbor and wait-time skew stays bounded by the weights.
///  - **Memory-aware admission**: each job carries a byte estimate
///    (declared, or derived from the lineage nodes' profiles via
///    EstimateJobBytes). A job is dispatched only while
///    `bytes_in_memory + committed estimates` stays under
///    `admit_watermark × BlockManager budget` — eviction pressure
///    backpressures admission, so concurrent materializations are capped
///    by *budget*, not by a count. A job whose estimate exceeds the whole
///    budget is rejected at Submit with Status::OutOfMemory; anything
///    else queues and eventually runs (when the server goes idle, the
///    head job is force-admitted so an over-pessimistic estimate can
///    never wedge the queue: queue-not-OOM, never deadlock).
///  - **Result reuse**: jobs submitted with a nonzero lineage digest
///    (internal::LineageDigest) share a ResultCache — digest-equal plans
///    from different sessions hit and skip execution entirely.
///
/// Jobs execute on the dispatcher thread with **no server lock held**,
/// bound to a fresh engine job id (internal::ScopedJobId), so every
/// served job's stages carry a unique StageStat::job_id and per-tenant
/// cost shows up in DumpTrace / ExplainAnalyze. Lock ranks: mu_ is
/// kJobServer (60), per-session queue_mu_ is kSessionQueue (58), the
/// shared cache is kResultCache (4) — see DESIGN.md §10.
class JobServer {
 public:
  struct Options {
    /// Dispatcher threads = max jobs materializing concurrently. The
    /// admission budget, not this count, is the memory cap.
    int dispatcher_threads = 4;
    /// Fraction of the BlockManager budget admission may commit to
    /// in-flight jobs before backpressuring (the eviction-pressure
    /// threshold). Ignored when the context has no memory budget.
    double admit_watermark = 0.85;
    /// Estimate assumed for jobs that declare none and have no profile
    /// history.
    uint64_t default_estimate_bytes = 1 << 20;
    /// Result-cache byte budget; 0 disables cross-session result reuse.
    uint64_t result_cache_bytes = 0;
    /// Start with dispatch paused (tests pre-fill queues, then Resume()
    /// for a deterministic drain order).
    bool start_paused = false;
  };

  struct SessionOptions {
    std::string name;
    int weight = 1;  // weighted round-robin share, clamped to >= 1
  };

  using SessionId = uint64_t;
  using JobId = uint64_t;

  /// A finished job's payload: a type-erased result plus its byte size
  /// (cache accounting). SubmitCollect wraps Collect() results this way;
  /// raw Submit callers build their own.
  struct Payload {
    std::shared_ptr<const void> data;
    uint64_t bytes = 0;
  };

  /// Job body. Runs on a dispatcher thread with no server lock held and
  /// an engine job id bound. May throw (the engine throws on final,
  /// unrecoverable job failure) — the server converts to Status.
  using JobFn = std::function<Result<Payload>()>;

  struct SubmitOptions {
    std::string label;            // diagnostics; defaults to the plan name
    uint64_t estimate_bytes = 0;  // 0 → profile history / server default
    uint64_t digest = 0;          // 0 → bypass the result cache
  };

  /// Per-tenant accounting, attributed at dispatch/completion.
  struct SessionStats {
    std::string name;
    int weight = 1;
    uint64_t submitted = 0;
    uint64_t dispatched = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cache_hits = 0;  // jobs served from the result cache
    uint64_t deferred = 0;    // jobs that waited on admission at least once
    uint64_t wait_us = 0;     // total submit → dispatch
    uint64_t run_us = 0;      // total dispatch → completion
    // Latency percentile estimates (us) over this session's finished
    // jobs, from per-session fixed-bucket histograms (EngineMetrics::
    // LatencyBoundsUs edges; see Histogram::Percentile). wait = submit →
    // dispatch, run = dispatch → done, e2e = submit → done. Cache hits
    // count too — a hit's run time is the cache lookup.
    double wait_p50_us = 0, wait_p95_us = 0, wait_p99_us = 0;
    double run_p50_us = 0, run_p95_us = 0, run_p99_us = 0;
    double e2e_p50_us = 0, e2e_p95_us = 0, e2e_p99_us = 0;
    /// Engine job ids this session's jobs ran under — joins per-tenant
    /// cost against StageStat::job_id in DumpTrace. Cache hits run no
    /// engine job and contribute no id.
    std::vector<uint64_t> engine_job_ids;
  };

  /// Per-job view for latency accounting and result pickup.
  struct JobInfo {
    SessionId session = 0;
    std::string label;
    bool done = false;
    bool cache_hit = false;
    Status status;       // meaningful once done
    uint64_t wait_us = 0;  // submit → dispatch
    uint64_t run_us = 0;   // dispatch → done
  };

  // Overloads rather than `= {}` defaults: GCC rejects brace-init default
  // arguments of nested structs with member initializers inside the
  // enclosing class body.
  JobServer(Context* ctx, Options opts);
  explicit JobServer(Context* ctx) : JobServer(ctx, Options()) {}
  ~JobServer();  // Shutdown()

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Registers a tenant session. Sessions live for the server's lifetime.
  SessionId OpenSession(SessionOptions opts) EXCLUDES(mu_);
  SessionId OpenSession() { return OpenSession(SessionOptions()); }

  /// Queues a job on `session`. Returns Status::OutOfMemory without
  /// queueing when the estimate can never be admitted (exceeds the whole
  /// memory budget), InvalidArgument for an unknown session,
  /// FailedPrecondition after Shutdown.
  Result<JobId> Submit(SessionId session, JobFn fn, SubmitOptions opts)
      EXCLUDES(mu_);
  Result<JobId> Submit(SessionId session, JobFn fn) {
    return Submit(session, std::move(fn), SubmitOptions());
  }

  /// Convenience: submit `rdd.Collect()` as a job. Fills in the digest
  /// (LineageDigest), the estimate (profile history via EstimateJobBytes)
  /// and the label from the plan unless overridden in `opts`. Retrieve
  /// with Collect<T>(job).
  template <typename T>
  Result<JobId> SubmitCollect(SessionId session, Rdd<T> rdd) {
    return SubmitCollect(session, std::move(rdd), SubmitOptions());
  }
  template <typename T>
  Result<JobId> SubmitCollect(SessionId session, Rdd<T> rdd,
                              SubmitOptions opts) {
    if (opts.digest == 0) opts.digest = rdd.LineageDigest();
    if (opts.estimate_bytes == 0) {
      opts.estimate_bytes = EstimateJobBytes(rdd.node());
    }
    if (opts.label.empty()) opts.label = rdd.node()->name();
    return Submit(
        session,
        [rdd]() -> Result<Payload> {
          auto rows =
              std::make_shared<const std::vector<T>>(rdd.Collect());
          Payload p;
          p.bytes = EstimateSize(*rows);
          p.data = std::shared_ptr<const void>(rows, rows.get());
          return p;
        },
        std::move(opts));
  }

  /// Blocks until `job` finishes; returns its status.
  Status Wait(JobId job) EXCLUDES(mu_);

  /// Blocks until every submitted job has finished. Asserts the server is
  /// not paused (a paused server would never drain).
  void WaitAll() EXCLUDES(mu_);

  /// The finished job's payload (empty until done).
  Payload ResultPayload(JobId job) EXCLUDES(mu_);

  /// Typed result pickup for SubmitCollect<T> jobs. Digest-equality
  /// guarantees type-equality, so the cast back is sound for cache hits
  /// too. Fails with the job's status when the job failed.
  template <typename T>
  Result<std::shared_ptr<const std::vector<T>>> Collect(JobId job) {
    Status st = Wait(job);
    SPANGLE_RETURN_NOT_OK(st);
    return std::static_pointer_cast<const std::vector<T>>(
        ResultPayload(job).data);
  }

  /// Pause/resume dispatch. Queued and new submissions hold until
  /// Resume(); jobs already executing finish normally.
  void Pause() EXCLUDES(mu_);
  void Resume() EXCLUDES(mu_);

  /// Stops dispatch, fails still-queued jobs with FailedPrecondition,
  /// joins the dispatchers. Running jobs complete first. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  SessionStats Stats(SessionId session) const EXCLUDES(mu_);
  JobInfo Info(JobId job) const EXCLUDES(mu_);

  /// (session, job) pairs in dispatch order — the fairness tests' probe.
  std::vector<std::pair<SessionId, JobId>> DispatchLog() const EXCLUDES(mu_);

  /// Bytes of in-flight admission estimates (test/diagnostic hook).
  uint64_t committed_bytes() const EXCLUDES(mu_);

  ResultCache* result_cache() { return cache_.get(); }

 private:
  /// One queued/running/finished job. Fields are written either under
  /// mu_ (before dispatch / at completion) or by the one dispatcher
  /// thread that owns the job while it runs (fn/payload/status staging),
  /// never both at once — same ownership discipline as ExecutorPool's
  /// slots, so they carry no GUARDED_BY.
  struct Job {
    JobId id = 0;
    SessionId session = 0;
    std::string label;
    JobFn fn;
    uint64_t estimate = 0;
    uint64_t digest = 0;
    uint64_t submit_us = 0;
    uint64_t dispatch_us = 0;
    uint64_t done_us = 0;
    bool deferred_counted = false;  // admission_queued tallied once
    bool done = false;
    bool cache_hit = false;
    Status status;
    Payload payload;
  };

  /// One tenant. queue_mu_ (rank kSessionQueue) guards the FIFO and the
  /// stats; it is only ever acquired under mu_ or alone.
  struct Session {
    Session(SessionId id_in, SessionOptions o)
        : id(id_in),
          name(o.name.empty() ? "session-" + std::to_string(id_in)
                              : std::move(o.name)),
          weight(o.weight < 1 ? 1 : o.weight) {}

    const SessionId id;
    const std::string name;
    const int weight;

    mutable Mutex queue_mu{LockRank::kSessionQueue, "Session::queue_mu"};
    std::deque<JobId> queue GUARDED_BY(queue_mu);
    uint64_t submitted GUARDED_BY(queue_mu) = 0;
    uint64_t dispatched GUARDED_BY(queue_mu) = 0;
    uint64_t completed GUARDED_BY(queue_mu) = 0;
    uint64_t failed GUARDED_BY(queue_mu) = 0;
    uint64_t cache_hits GUARDED_BY(queue_mu) = 0;
    uint64_t deferred GUARDED_BY(queue_mu) = 0;
    uint64_t wait_us GUARDED_BY(queue_mu) = 0;
    uint64_t run_us GUARDED_BY(queue_mu) = 0;
    std::vector<uint64_t> engine_job_ids GUARDED_BY(queue_mu);

    // Internally atomic (no guard): per-session latency distributions
    // behind the SessionStats percentiles. The context-wide copies live
    // in EngineMetrics (job_queue_wait_us / job_run_us / job_e2e_us).
    Histogram wait_hist{EngineMetrics::LatencyBoundsUs()};
    Histogram run_hist{EngineMetrics::LatencyBoundsUs()};
    Histogram e2e_hist{EngineMetrics::LatencyBoundsUs()};
  };

  void DispatcherLoop();
  /// WRR scan: next admissible job, popped from its session queue and
  /// marked dispatched; nullptr when nothing is admissible right now.
  Job* PickAndAdmitLocked() REQUIRES(mu_);
  bool AdmitLocked(const Job& job) const REQUIRES(mu_);
  void AdvanceCursorLocked() REQUIRES(mu_);
  void ExecuteJob(Job* job) EXCLUDES(mu_);
  Session* SessionLocked(SessionId id) const REQUIRES(mu_);

  Context* const ctx_;
  const Options opts_;
  std::unique_ptr<ResultCache> cache_;  // null when disabled

  // Rank kJobServer: holds session queue locks (kSessionQueue) and calls
  // BlockManager accessors (kBlockManager) while held; never held across
  // job execution.
  mutable Mutex mu_{LockRank::kJobServer, "JobServer::mu_"};
  CondVar work_cv_;  // dispatchers: new work / freed headroom / resume
  CondVar done_cv_;  // waiters: a job finished

  std::vector<std::unique_ptr<Session>> sessions_ GUARDED_BY(mu_);
  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_ GUARDED_BY(mu_);
  std::vector<std::pair<SessionId, JobId>> dispatch_log_ GUARDED_BY(mu_);

  uint64_t next_job_id_ GUARDED_BY(mu_) = 0;
  size_t rr_index_ GUARDED_BY(mu_) = 0;    // WRR cursor into sessions_
  int rr_credits_ GUARDED_BY(mu_) = 0;     // dispatch slots left at cursor
  uint64_t committed_ GUARDED_BY(mu_) = 0;  // sum of running estimates
  int running_ GUARDED_BY(mu_) = 0;
  uint64_t outstanding_ GUARDED_BY(mu_) = 0;  // submitted, not yet done
  bool paused_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;

  std::vector<std::thread> dispatchers_;
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_JOB_SERVER_H_
