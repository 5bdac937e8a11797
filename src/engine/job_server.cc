#include "engine/job_server.h"

#include <exception>
#include <unordered_set>

#include "common/logging.h"
#include "engine/scheduler.h"

namespace spangle {

JobServer::JobServer(Context* ctx, Options opts)
    : ctx_(ctx), opts_(std::move(opts)) {
  SPANGLE_CHECK(ctx_ != nullptr);
  if (opts_.result_cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(opts_.result_cache_bytes,
                                           &ctx_->metrics());
  }
  {
    MutexLock lock(&mu_);
    paused_ = opts_.start_paused;
  }
  const int n = opts_.dispatcher_threads < 1 ? 1 : opts_.dispatcher_threads;
  dispatchers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

JobServer::~JobServer() { Shutdown(); }

JobServer::SessionId JobServer::OpenSession(SessionOptions opts) {
  MutexLock lock(&mu_);
  const SessionId id = sessions_.size() + 1;
  sessions_.push_back(std::make_unique<Session>(id, std::move(opts)));
  return id;
}

Result<JobServer::JobId> JobServer::Submit(SessionId session, JobFn fn,
                                           SubmitOptions opts) {
  uint64_t estimate = opts.estimate_bytes != 0 ? opts.estimate_bytes
                                               : opts_.default_estimate_bytes;
  const uint64_t budget = ctx_->block_manager().memory_budget();
  if (budget != 0 && estimate > budget) {
    // Typed rejection: this job can never be admitted — even alone it
    // would blow the memory budget. The caller sees the policy decision,
    // not an OOM kill.
    ctx_->metrics().admission_rejected.fetch_add(1);
    return Status::OutOfMemory(
        "job estimate " + std::to_string(estimate) +
        " bytes exceeds the memory budget of " + std::to_string(budget) +
        " bytes; it would be rejected by admission control forever");
  }
  MutexLock lock(&mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("JobServer is shut down");
  }
  if (session == 0 || session > sessions_.size()) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  const JobId id = ++next_job_id_;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->session = session;
  job->label = std::move(opts.label);
  job->fn = std::move(fn);
  job->estimate = estimate;
  job->digest = opts.digest;
  job->submit_us = ctx_->NowMicros();
  jobs_.emplace(id, std::move(job));
  ++outstanding_;
  Session* s = SessionLocked(session);
  {
    MutexLock qlock(&s->queue_mu);
    s->queue.push_back(id);
    ++s->submitted;
  }
  ctx_->metrics().jobs_submitted.fetch_add(1);
  work_cv_.NotifyAll();
  return id;
}

Status JobServer::Wait(JobId job) {
  MutexLock lock(&mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return Status::InvalidArgument("unknown job id " + std::to_string(job));
  }
  Job* j = it->second.get();
  while (!j->done) done_cv_.Wait(mu_);
  return j->status;
}

void JobServer::WaitAll() {
  MutexLock lock(&mu_);
  SPANGLE_CHECK(!paused_ || shutdown_);  // a paused server never drains
  while (outstanding_ > 0) done_cv_.Wait(mu_);
}

JobServer::Payload JobServer::ResultPayload(JobId job) {
  MutexLock lock(&mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end() || !it->second->done) return {};
  return it->second->payload;
}

void JobServer::Pause() {
  MutexLock lock(&mu_);
  paused_ = true;
}

void JobServer::Resume() {
  MutexLock lock(&mu_);
  paused_ = false;
  work_cv_.NotifyAll();
}

void JobServer::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
    work_cv_.NotifyAll();
  }
  for (auto& t : dispatchers_) t.join();
  dispatchers_.clear();
  // Dispatchers are gone: fail every job still sitting in a queue so
  // Wait() callers unblock with a typed status instead of hanging.
  MutexLock lock(&mu_);
  for (const auto& s : sessions_) {
    std::deque<JobId> drained;
    {
      MutexLock qlock(&s->queue_mu);
      drained.swap(s->queue);
      s->failed += drained.size();
    }
    for (const JobId id : drained) {
      Job* j = jobs_.at(id).get();
      j->status = Status::FailedPrecondition(
          "JobServer shut down before the job was dispatched");
      j->done = true;
      --outstanding_;
    }
  }
  done_cv_.NotifyAll();
}

JobServer::SessionStats JobServer::Stats(SessionId session) const {
  SessionStats out;
  MutexLock lock(&mu_);
  if (session == 0 || session > sessions_.size()) return out;
  const Session* s = sessions_[session - 1].get();
  MutexLock qlock(&s->queue_mu);
  out.name = s->name;
  out.weight = s->weight;
  out.submitted = s->submitted;
  out.dispatched = s->dispatched;
  out.completed = s->completed;
  out.failed = s->failed;
  out.cache_hits = s->cache_hits;
  out.deferred = s->deferred;
  out.wait_us = s->wait_us;
  out.run_us = s->run_us;
  out.engine_job_ids = s->engine_job_ids;
  out.wait_p50_us = s->wait_hist.Percentile(0.50);
  out.wait_p95_us = s->wait_hist.Percentile(0.95);
  out.wait_p99_us = s->wait_hist.Percentile(0.99);
  out.run_p50_us = s->run_hist.Percentile(0.50);
  out.run_p95_us = s->run_hist.Percentile(0.95);
  out.run_p99_us = s->run_hist.Percentile(0.99);
  out.e2e_p50_us = s->e2e_hist.Percentile(0.50);
  out.e2e_p95_us = s->e2e_hist.Percentile(0.95);
  out.e2e_p99_us = s->e2e_hist.Percentile(0.99);
  return out;
}

JobServer::JobInfo JobServer::Info(JobId job) const {
  JobInfo out;
  MutexLock lock(&mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return out;
  const Job* j = it->second.get();
  out.session = j->session;
  out.label = j->label;
  out.done = j->done;
  out.cache_hit = j->cache_hit;
  out.status = j->status;
  if (j->dispatch_us >= j->submit_us) out.wait_us = j->dispatch_us - j->submit_us;
  if (j->done && j->done_us >= j->dispatch_us) {
    out.run_us = j->done_us - j->dispatch_us;
  }
  return out;
}

std::vector<std::pair<JobServer::SessionId, JobServer::JobId>>
JobServer::DispatchLog() const {
  MutexLock lock(&mu_);
  return dispatch_log_;
}

uint64_t JobServer::committed_bytes() const {
  MutexLock lock(&mu_);
  return committed_;
}

JobServer::Session* JobServer::SessionLocked(SessionId id) const {
  SPANGLE_CHECK(id >= 1 && id <= sessions_.size());
  return sessions_[id - 1].get();
}

void JobServer::AdvanceCursorLocked() {
  rr_index_ = sessions_.empty() ? 0 : (rr_index_ + 1) % sessions_.size();
  rr_credits_ = 0;  // re-seeded from the next session's weight on visit
}

bool JobServer::AdmitLocked(const Job& job) const {
  const uint64_t budget = ctx_->block_manager().memory_budget();
  if (budget == 0) return true;  // unbudgeted context: admit everything
  // Progress guarantee: with nothing running, the head job is admitted
  // no matter its estimate (Submit already rejected estimates over the
  // whole budget). Queue-not-OOM must never become queue-forever.
  if (running_ == 0) return true;
  const uint64_t limit =
      static_cast<uint64_t>(static_cast<double>(budget) * opts_.admit_watermark);
  const uint64_t used = ctx_->block_manager().bytes_in_memory() + committed_;
  return used + job.estimate <= limit;
}

JobServer::Job* JobServer::PickAndAdmitLocked() {
  const size_t n = sessions_.size();
  if (n == 0) return nullptr;
  if (rr_index_ >= n) rr_index_ = 0;
  for (size_t scanned = 0; scanned < n; ++scanned) {
    Session* s = sessions_[rr_index_].get();
    if (rr_credits_ <= 0) rr_credits_ = s->weight;
    JobId head = 0;
    {
      MutexLock qlock(&s->queue_mu);
      if (!s->queue.empty()) head = s->queue.front();
    }
    if (head == 0) {
      AdvanceCursorLocked();
      continue;
    }
    Job* job = jobs_.at(head).get();
    if (!AdmitLocked(*job)) {
      if (!job->deferred_counted) {
        job->deferred_counted = true;
        ctx_->metrics().admission_queued.fetch_add(1);
        MutexLock qlock(&s->queue_mu);
        ++s->deferred;
      }
      // This tenant's head does not fit right now; a lighter neighbor
      // might. FIFO within a session is preserved; order across sessions
      // is whatever admission allows.
      AdvanceCursorLocked();
      continue;
    }
    {
      MutexLock qlock(&s->queue_mu);
      s->queue.pop_front();
      ++s->dispatched;
    }
    --rr_credits_;
    if (rr_credits_ <= 0) AdvanceCursorLocked();
    return job;
  }
  return nullptr;
}

void JobServer::DispatcherLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (shutdown_) return;
        if (!paused_) {
          job = PickAndAdmitLocked();
          if (job != nullptr) break;
        }
        work_cv_.Wait(mu_);
      }
      job->dispatch_us = ctx_->NowMicros();
      committed_ += job->estimate;
      ++running_;
      dispatch_log_.emplace_back(job->session, job->id);
      Session* s = SessionLocked(job->session);
      const uint64_t wait = job->dispatch_us - job->submit_us;
      ctx_->metrics().job_queue_wait_us.Observe(static_cast<double>(wait));
      s->wait_hist.Observe(static_cast<double>(wait));
      MutexLock qlock(&s->queue_mu);
      s->wait_us += wait;
    }
    ExecuteJob(job);
  }
}

void JobServer::ExecuteJob(Job* job) {
  Payload payload;
  Status status;  // OK
  bool cache_hit = false;
  if (job->digest != 0 && cache_ != nullptr) {
    if (auto hit = cache_->Get(job->digest)) {
      payload.data = hit->data;
      payload.bytes = hit->bytes;
      cache_hit = true;
    }
  }
  uint64_t engine_job_id = 0;
  if (!cache_hit) {
    // Bind a fresh engine job id for the duration: Context::RunJob (and
    // EnsureShuffleDependencies) reuse the ambient id, so every stage
    // this job runs carries it in StageStat::job_id — that is how
    // per-tenant cost shows up in the trace.
    engine_job_id = ctx_->NextJobId();
    internal::ScopedJobId scope(engine_job_id);
    try {
      Result<Payload> r = job->fn();
      if (r.ok()) {
        payload = std::move(r).ValueOrDie();
      } else {
        status = r.status();
      }
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("job threw: ") + e.what());
    } catch (...) {
      status = Status::Internal("job threw a non-std exception");
    }
    if (status.ok() && job->digest != 0 && cache_ != nullptr) {
      cache_->Put(job->digest, {payload.data, payload.bytes});
    }
  }
  MutexLock lock(&mu_);
  job->done_us = ctx_->NowMicros();
  --running_;
  committed_ -= job->estimate;
  job->payload = std::move(payload);
  job->status = std::move(status);
  job->cache_hit = cache_hit;
  job->done = true;
  --outstanding_;
  Session* s = SessionLocked(job->session);
  {
    MutexLock qlock(&s->queue_mu);
    if (job->status.ok()) {
      ++s->completed;
    } else {
      ++s->failed;
    }
    if (cache_hit) ++s->cache_hits;
    s->run_us += job->done_us - job->dispatch_us;
    if (engine_job_id != 0) s->engine_job_ids.push_back(engine_job_id);
  }
  const uint64_t run = job->done_us - job->dispatch_us;
  const uint64_t e2e = job->done_us - job->submit_us;
  ctx_->metrics().job_run_us.Observe(static_cast<double>(run));
  ctx_->metrics().job_e2e_us.Observe(static_cast<double>(e2e));
  s->run_hist.Observe(static_cast<double>(run));
  s->e2e_hist.Observe(static_cast<double>(e2e));
  ctx_->metrics().jobs_served.fetch_add(1);
  work_cv_.NotifyAll();  // freed headroom: re-scan deferred jobs
  done_cv_.NotifyAll();
}

uint64_t EstimateJobBytes(internal::NodeBase* root,
                          uint64_t default_per_partition) {
  if (root == nullptr) return default_per_partition;
  uint64_t total = 0;
  std::unordered_set<const internal::NodeBase*> visited;
  std::vector<internal::NodeBase*> stack{root};
  while (!stack.empty()) {
    internal::NodeBase* n = stack.back();
    stack.pop_back();
    if (!visited.insert(n).second) continue;
    const auto parts = static_cast<uint64_t>(n->num_partitions());
    const NodeProfileSnapshot snap = n->profile().Snapshot();
    if (snap.invocations > 0 && snap.bytes_out > 0) {
      total += snap.bytes_out / snap.invocations * parts;
    } else {
      total += default_per_partition * parts;
    }
    for (internal::NodeBase* p : n->Parents()) stack.push_back(p);
  }
  return total == 0 ? default_per_partition : total;
}

}  // namespace spangle
