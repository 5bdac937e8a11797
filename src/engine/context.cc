#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <thread>
#include <unordered_map>

#include "codec/hash.h"
#include "common/mutex.h"
#include "engine/metrics_export.h"
#include "net/executor_fleet.h"

namespace spangle {

Context::Context(int num_workers, int default_parallelism,
                 int task_overhead_us, StorageOptions storage,
                 DeploymentOptions deploy)
    : pool_(num_workers),
      block_manager_(storage, num_workers, &metrics_),
      default_parallelism_(default_parallelism > 0 ? default_parallelism
                                                   : 2 * num_workers),
      task_overhead_us_(task_overhead_us) {
  trace_spans_.set_enabled(deploy.distributed.tracing);
  if (deploy.mode == DeploymentMode::kDistributed) {
    // The fleet stamps trace headers from the calling thread's context,
    // mints client span ids from trace_spans_, and uses the pool clock as
    // the trace epoch so client spans align with stage/task events.
    fleet_ = std::make_unique<net::ExecutorFleet>(
        deploy.distributed, &metrics_, &trace_spans_,
        [this] { return pool_.NowMicros(); });
    const Status st = fleet_->Start();
    // A context that cannot reach its executors is unusable; failing
    // loudly at construction beats every later job hanging on RPCs.
    SPANGLE_CHECK(st.ok()) << "executor fleet start failed: "
                           << st.ToString();
    remote_shuffle_ = std::make_unique<net::RemoteShuffleFetcher>(
        fleet_.get(), &metrics_);
  }
}

Context::~Context() {
  if (fleet_ != nullptr) fleet_->Shutdown();
}

void Context::FailExecutor(int worker) {
  block_manager_.FailExecutor(worker);
  if (fleet_ != nullptr) fleet_->FailExecutor(worker % fleet_->num_executors());
}

void Context::RunStage(const std::string& name, int n,
                       const std::function<void(int)>& fn,
                       int stage_attempt) {
  const FaultToleranceOptions opts = fault_options();
  const std::shared_ptr<const ChaosPolicy> chaos = chaos_policy();
  // Bound to every task thread of this stage (null = profiling off, all
  // hooks reduce to one branch).
  RuntimeProfile* const profile = profiling_enabled() ? &profile_ : nullptr;

  StageStat stat;
  stat.job_id = internal::CurrentJobId();
  stat.seq = next_stage_seq_.fetch_add(1);
  stat.name = name;
  stat.attempt = stage_attempt;
  stat.num_tasks = n;
  stat.tasks.resize(static_cast<size_t>(std::max(n, 0)));
  EngineMetrics::StageAccumulator acc;

  // Trace identity for this stage: inherit the ambient context (bound by
  // RunJob or a scheduler driver thread), falling back to the job id as
  // the trace id so stages reached without RunJob still trace. Each task
  // rebinds with a freshly minted span id, which is what the fleet stamps
  // as parent_span_id on the RPCs that task issues.
  TraceContext stage_trace;
  if (trace_spans_.enabled()) {
    stage_trace = trace::Current();
    if (stage_trace.trace_id == 0) stage_trace.trace_id = stat.job_id;
  }

  // Primary per-index timing slots live in stat.tasks[0..n); retry
  // attempts are appended afterwards as extra trace lanes.
  TaskStat* slots = stat.tasks.data();
  Mutex extra_mu{LockRank::kLeaf, "RunStage::extra_mu"};
  std::vector<TaskStat> extras;

  const int overhead = task_overhead_us_;
  stat.start_us = pool_.NowMicros();
  if (profile != nullptr) profile->SampleCounters(stat.start_us);

  std::vector<int> pending(static_cast<size_t>(std::max(n, 0)));
  for (int i = 0; i < n; ++i) pending[static_cast<size_t>(i)] = i;
  std::vector<uint64_t> lost_nodes;
  Status last_failure;

  // Finalization shared by the success path and both abort paths, so
  // every stage execution — including aborted ones — leaves a complete
  // StageStat for Explain()/DumpTrace.
  const auto Finalize = [&] {
    stat.wall_us = pool_.NowMicros() - stat.start_us;
    if (profile != nullptr) profile->SampleCounters(pool_.NowMicros());
    // Task-time distribution over the primary attempts: min/max/total,
    // the task_duration_us histogram, skew ratio (max/mean), stragglers
    // (> 2x mean).
    if (n > 0) {
      stat.min_task_us = UINT64_MAX;
      for (int i = 0; i < n; ++i) {
        const TaskStat& t = stat.tasks[static_cast<size_t>(i)];
        stat.min_task_us = std::min(stat.min_task_us, t.duration_us);
        stat.max_task_us = std::max(stat.max_task_us, t.duration_us);
        stat.total_task_us += t.duration_us;
        metrics_.task_duration_us.Observe(
            static_cast<double>(t.duration_us));
      }
      const double mean =
          static_cast<double>(stat.total_task_us) / static_cast<double>(n);
      if (mean > 0) {
        stat.skew_ratio = static_cast<double>(stat.max_task_us) / mean;
        for (int i = 0; i < n; ++i) {
          if (static_cast<double>(
                  stat.tasks[static_cast<size_t>(i)].duration_us) >
              2.0 * mean) {
            ++stat.num_stragglers;
          }
        }
      }
    }
    metrics_.task_time_us.fetch_add(stat.total_task_us,
                                    std::memory_order_relaxed);
    stat.shuffle_bytes = acc.shuffle_bytes.load(std::memory_order_relaxed);
    stat.shuffle_records =
        acc.shuffle_records.load(std::memory_order_relaxed);
    stat.remote_fetch_us =
        acc.remote_fetch_us.load(std::memory_order_relaxed);
    stat.tasks.insert(stat.tasks.end(), extras.begin(), extras.end());
  };

  // A task pending in retry round `round` has run exactly `round` times
  // before, so the round is its attempt number.
  for (int round = 0;; ++round) {
    std::vector<ExecutorPool::Task> tasks;
    tasks.reserve(pending.size());
    for (const int i : pending) {
      tasks.emplace_back([this, &fn, &acc, &chaos, &name, &stage_trace,
                          stage_attempt, overhead, profile, round, i] {
        EngineMetrics::ScopedStageAccumulator scope(&acc);
        prof::ScopedThreadProfile profile_scope(profile);
        // Per-task trace context: the Put/Fetch RPCs this task issues
        // parent under the task's span id.
        TraceContext task_trace = stage_trace;
        if (task_trace.trace_id != 0) {
          task_trace.parent_span_id = stage_trace.span_id;
          task_trace.span_id = trace_spans_.NextSpanId();
        }
        trace::ScopedContext trace_scope(task_trace);
        uint64_t delay = static_cast<uint64_t>(overhead > 0 ? overhead : 0);
        bool kill = false;
        if (chaos != nullptr) {
          const ChaosTaskInfo info{name, stage_attempt, i, round};
          if (chaos->fail_executor) {
            const int w = chaos->fail_executor(info);
            // Routed through Context::FailExecutor: in DISTRIBUTED mode
            // this SIGKILLs a real daemon, making the chaos suite a
            // genuine distributed-failure test.
            if (w >= 0) FailExecutor(w);
          }
          if (chaos->delay_us) delay += chaos->delay_us(info);
          kill = chaos->fail_task && chaos->fail_task(info);
        }
        if (delay > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(delay));
        }
        if (kill) throw TaskKilledError(name, i, round);
        fn(i);
      });
    }

    const auto observer = [&pending, slots, &extra_mu, &extras,
                           round](const TaskTiming& t) {
      const int real = pending[static_cast<size_t>(t.index)];
      const TaskStat ts{real, t.lane, t.start_us, t.duration_us, round};
      if (round == 0) {
        // Per-index slot, written once by the thread that ran the primary
        // attempt, read after the batch barrier (happens-before via the
        // pool's completion wait).
        slots[real] = ts;
      } else {
        MutexLock lock(&extra_mu);
        extras.push_back(ts);
      }
    };

    ExecutorPool::BatchResult res = pool_.RunAll(std::move(tasks), observer);

    std::vector<int> retry;
    for (size_t j = 0; j < pending.size(); ++j) {
      const int i = pending[j];
      const ExecutorPool::TaskResult& tr = res.tasks[j];
      if (tr.status.ok()) continue;
      try {
        std::rethrow_exception(tr.error);
      } catch (const ShuffleBlockLostError& e) {
        // Fetch failure: retrying the task cannot help until the upstream
        // stage re-materializes. Escalate to job-level recovery.
        for (const uint64_t node : e.nodes()) {
          if (std::find(lost_nodes.begin(), lost_nodes.end(), node) ==
              lost_nodes.end()) {
            lost_nodes.push_back(node);
          }
        }
      } catch (...) {
        retry.push_back(i);
        last_failure = tr.status;
      }
    }

    if (!lost_nodes.empty()) {
      Finalize();
      metrics_.RecordStage(std::move(stat));
      throw ShuffleBlockLostError(std::move(lost_nodes));
    }
    if (retry.empty()) break;
    if (round >= opts.max_task_retries) {
      Finalize();
      metrics_.RecordStage(std::move(stat));
      throw JobFailedError(
          "stage '" + name + "' failed: task exhausted " +
          std::to_string(opts.max_task_retries) + " retries; last error: " +
          std::string(last_failure.message()));
    }
    metrics_.task_retries.fetch_add(retry.size());
    stat.task_retries += static_cast<int>(retry.size());
    if (opts.retry_backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          opts.retry_backoff_us << std::min(round, 16)));
    }
    pending = std::move(retry);
  }

  Finalize();
  metrics_.RecordStage(std::move(stat));
  metrics_.tasks_run.fetch_add(static_cast<uint64_t>(n));
  metrics_.stages_run.fetch_add(1);
}

void Context::RunJob(internal::NodeBase* root, const std::string& action,
                     int n, const std::function<void(int)>& fn) {
  RunPlanned({root}, action,
             [&](int attempt) { RunStage(action, n, fn, attempt); });
  metrics_.jobs_run.fetch_add(1);
}

void Context::RunPlanned(const std::vector<internal::NodeBase*>& roots,
                         const std::string& action,
                         const std::function<void(int)>& result_stage) {
  // Runs under the caller's job id when one is bound (the JobServer's
  // dispatchers bind one id per served job so every StageStat of that
  // job carries the same tenant-attributable id; a materialize-only job
  // started inside another job joins it), else mints its own.
  const uint64_t ambient = internal::CurrentJobId();
  const uint64_t job_id =
      ambient != 0 ? ambient : next_job_id_.fetch_add(1) + 1;
  internal::ScopedJobId job(job_id);
  // Job-root trace span: trace_id is the job id (unique per context), so
  // every stage, task, client RPC and daemon serve span of this job
  // shares one trace. Untouched when tracing is off or the caller already
  // bound a context.
  TraceContext job_trace = trace::Current();
  if (trace_spans_.enabled() && job_trace.trace_id == 0) {
    job_trace.trace_id = job_id;
    job_trace.span_id = trace_spans_.NextSpanId();
  }
  trace::ScopedContext trace_scope(job_trace);
  const FaultToleranceOptions opts = fault_options();
  const int max_attempts = std::max(1, opts.max_job_attempts);
  for (int attempt = 0;; ++attempt) {
    // Re-planning each attempt is what makes recovery stage-granular:
    // shuffles whose output survived report IsMaterialized() and are
    // skipped; only lost ones re-run from lineage.
    PhysicalPlan plan = scheduler_.BuildPlan(roots, action);
    try {
      scheduler_.MaterializeShuffles(plan, serial_shuffle_materialization());
      if (result_stage) result_stage(attempt);
      break;
    } catch (const ShuffleBlockLostError& e) {
      const std::string what = action.empty()
                                   ? std::string("shuffle materialization")
                                   : "job '" + action + "'";
      if (attempt + 1 >= max_attempts) {
        throw JobFailedError(what + " failed after " +
                             std::to_string(attempt + 1) +
                             " attempt(s): " + e.what());
      }
      SPANGLE_LOG(Warning) << what << " attempt " << attempt << ": "
                           << e.what() << "; re-planning";
    }
  }
}

PhysicalPlan Context::BuildPlan(internal::NodeBase* root,
                                const std::string& action) {
  return scheduler_.BuildPlan({root}, action);
}

PhysicalPlan Context::BuildPlan(
    const std::vector<internal::NodeBase*>& roots,
    const std::string& action) {
  return scheduler_.BuildPlan(roots, action);
}

void Context::EnsureShuffleDependencies(internal::NodeBase* node) {
  EnsureShuffleDependencies(std::vector<internal::NodeBase*>{node});
}

void Context::EnsureShuffleDependencies(
    const std::vector<internal::NodeBase*>& roots) {
  // Materialize-only job (no result stage); counted as a job of its own
  // only when no caller's job is active.
  const bool in_job = internal::CurrentJobId() != 0;
  RunPlanned(roots, "", nullptr);
  if (!in_job) metrics_.jobs_run.fetch_add(1);
}

bool Context::DumpTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
  // pid 0 = executor lanes (one tid per lane, complete events per task);
  // pid 1 = driver (one tid per stage so overlapping stages render as
  // parallel rows); pid 2 = counter tracks (cache pressure, shuffle
  // volume, shuffle concurrency sampled at stage boundaries). Task
  // events carry their attempt number, so retries show up as extra
  // slices on their lanes.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"executors\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"driver (stages)\"}}",
      f);
  for (const StageStat& s : metrics_.StageStats()) {
    const std::string name = JsonEscape(s.name);
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"stage\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"job\":%llu,\"attempt\":%d,\"tasks\":%d,"
                 "\"skew\":%.2f,\"stragglers\":%d,\"task_retries\":%d,"
                 "\"shuffle_bytes\":%llu}}",
                 name.c_str(), static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.wall_us),
                 static_cast<unsigned long long>(s.seq),
                 static_cast<unsigned long long>(s.job_id), s.attempt,
                 s.num_tasks, s.skew_ratio, s.num_stragglers, s.task_retries,
                 static_cast<unsigned long long>(s.shuffle_bytes));
    for (const TaskStat& t : s.tasks) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s[%d]\",\"cat\":\"task\",\"ph\":\"X\","
                   "\"ts\":%llu,\"dur\":%llu,\"pid\":0,\"tid\":%d,"
                   "\"args\":{\"job\":%llu,\"stage\":%llu,\"attempt\":%d}}",
                   name.c_str(), t.index,
                   static_cast<unsigned long long>(t.start_us),
                   static_cast<unsigned long long>(t.duration_us), t.lane,
                   static_cast<unsigned long long>(s.job_id),
                   static_cast<unsigned long long>(s.seq), t.attempt);
    }
  }
  const auto samples = profile_.CounterSamples();
  if (!samples.empty()) {
    std::fputs(
        ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
        "\"args\":{\"name\":\"counters\"}}",
        f);
    for (const auto& cs : samples) {
      std::fprintf(f,
                   ",\n{\"name\":\"bytes_cached\",\"ph\":\"C\",\"ts\":%llu,"
                   "\"pid\":2,\"args\":{\"bytes\":%llu}}"
                   ",\n{\"name\":\"shuffle_bytes\",\"ph\":\"C\",\"ts\":%llu,"
                   "\"pid\":2,\"args\":{\"bytes\":%llu}}"
                   ",\n{\"name\":\"concurrent_shuffles\",\"ph\":\"C\","
                   "\"ts\":%llu,\"pid\":2,\"args\":{\"stages\":%llu}}",
                   static_cast<unsigned long long>(cs.t_us),
                   static_cast<unsigned long long>(cs.bytes_cached),
                   static_cast<unsigned long long>(cs.t_us),
                   static_cast<unsigned long long>(cs.shuffle_bytes),
                   static_cast<unsigned long long>(cs.t_us),
                   static_cast<unsigned long long>(cs.concurrent_shuffles));
    }
  }
  // Distributed-tracing lanes: one final scrape pulls any spans still
  // sitting in daemon rings, then the driver's client RPC spans and every
  // collected daemon serve span (clock-offset adjusted at collection
  // time) render as extra pid lanes with flow arrows tying a driver span
  // to the daemon work it triggered.
  if (fleet_ != nullptr) fleet_->ScrapeAll();
  std::vector<TraceSpan> rpc_spans = trace_spans_.Snapshot();
  if (fleet_ != nullptr) {
    std::vector<TraceSpan> daemon_spans = fleet_->CollectedSpans();
    rpc_spans.insert(rpc_spans.end(),
                     std::make_move_iterator(daemon_spans.begin()),
                     std::make_move_iterator(daemon_spans.end()));
  }
  trace::WriteSpanEvents(f, rpc_spans);
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok;
}

std::string Context::MetricsJson() const {
  if (fleet_ == nullptr) return spangle::MetricsJson(metrics_);
  // Refresh the daemon snapshots so the export reflects "now", not the
  // last heartbeat round, then emit the fleet-labeled variant.
  fleet_->ScrapeAll();
  return spangle::MetricsJson(metrics_, fleet_->ExecutorStats());
}

bool Context::DumpMetricsJson(const std::string& path) const {
  return WriteStringToFile(MetricsJson(), path);
}

std::string Context::MetricsPrometheus() const {
  if (fleet_ == nullptr) return spangle::MetricsPrometheus(metrics_);
  fleet_->ScrapeAll();
  return spangle::MetricsPrometheus(metrics_, fleet_->ExecutorStats());
}

bool Context::DumpMetricsPrometheus(const std::string& path) const {
  return WriteStringToFile(MetricsPrometheus(), path);
}

namespace internal {

namespace {

// Postorder digest walk, memoized per call so diamond lineages hash each
// node once. 0 is the "not cacheable" sentinel and propagates upward.
uint64_t DigestWalk(const NodeBase* n,
                    std::unordered_map<const NodeBase*, uint64_t>& memo) {
  const auto it = memo.find(n);
  if (it != memo.end()) return it->second;
  uint64_t h = codec::Hash64(n->name().data(), n->name().size());
  const uint64_t fields[3] = {static_cast<uint64_t>(n->num_partitions()),
                              n->IsShuffle() ? 1u : 0u, n->digest_seed()};
  h = codec::Hash64(fields, sizeof(fields), h);
  const std::vector<NodeBase*> parents = n->Parents();
  // A source node's content is exactly its declared seed; undeclared
  // sources poison the whole digest (see the header contract).
  bool opaque = parents.empty() && n->digest_seed() == 0;
  for (const NodeBase* p : parents) {
    const uint64_t pd = DigestWalk(p, memo);
    if (pd == 0) {
      opaque = true;
      break;
    }
    h = codec::Hash64(&pd, sizeof(pd), h);
  }
  // Reserve 0 for "opaque": an (astronomically unlikely) zero hash of a
  // cacheable plan is remapped rather than silently disabling its cache.
  const uint64_t out = opaque ? 0 : (h == 0 ? 1 : h);
  memo.emplace(n, out);
  return out;
}

}  // namespace

uint64_t LineageDigest(const NodeBase* node) {
  if (node == nullptr) return 0;
  std::unordered_map<const NodeBase*, uint64_t> memo;
  return DigestWalk(node, memo);
}

}  // namespace internal

}  // namespace spangle
