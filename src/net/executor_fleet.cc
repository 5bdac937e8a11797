#include "net/executor_fleet.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "engine/scheduler.h"

namespace spangle {
namespace net {

namespace {

/// Reads the daemon's announce line ("SPANGLE_EXECUTORD PORT=<p> ...")
/// from the child's stdout pipe, with an overall timeout. Returns 0 on
/// timeout/EOF/garbage.
uint16_t ReadAnnouncedPort(int fd, int timeout_ms) {
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return 0;
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return 0;
    }
    if (pr == 0) return 0;  // timeout
    char buf[256];
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) return 0;  // EOF: the child died before announcing
    line.append(buf, static_cast<size_t>(r));
  }
  const size_t at = line.find("PORT=");
  if (at == std::string::npos) return 0;
  const unsigned long port = std::strtoul(line.c_str() + at + 5, nullptr, 10);
  if (port == 0 || port > 65535) return 0;
  return static_cast<uint16_t>(port);
}

/// Reaps `pid`: polls for a voluntary exit up to grace_ms, then SIGKILLs
/// and waits. Safe on already-dead pids.
void ReapChild(pid_t pid, int grace_ms) {
  if (pid <= 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  int wstatus = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &wstatus, 0);
}

}  // namespace

ExecutorFleet::ExecutorFleet(const DistributedOptions& options,
                             EngineMetrics* metrics, SpanRecorder* spans,
                             std::function<uint64_t()> now_us)
    : options_(options),
      num_executors_(options.num_executors),
      metrics_(metrics),
      spans_(spans),
      now_us_(std::move(now_us)),
      fleet_epoch_(std::chrono::steady_clock::now()) {
  SPANGLE_CHECK(num_executors_ > 0);
  SPANGLE_CHECK(metrics_ != nullptr);
  MutexLock l(&stats_mu_);
  stats_.resize(num_executors_);
  for (int w = 0; w < num_executors_; ++w) stats_[w].executor = w;
}

uint64_t ExecutorFleet::NowUs() const {
  if (now_us_) return now_us_();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - fleet_epoch_)
          .count());
}

uint64_t ExecutorFleet::StampTrace(TraceHeader* trace) {
  if (spans_ != nullptr && spans_->enabled()) {
    TraceContext tc = trace::Current();
    if (tc.trace_id == 0) {
      // Threads that bind a job id but no trace context (e.g. shuffle
      // materialization bodies running outside RunStage's task wrapper)
      // still trace: the job id doubles as the trace id, parented at the
      // root.
      tc = TraceContext{};
      tc.trace_id = internal::CurrentJobId();
    }
    if (tc.trace_id != 0) {
      trace->trace_id = tc.trace_id;
      trace->span_id = spans_->NextSpanId();
      trace->parent_span_id = tc.span_id;
    }
  }
  return NowUs();
}

void ExecutorFleet::RecordClientSpan(const TraceHeader& trace,
                                     const char* name, uint64_t start_us) {
  if (trace.trace_id == 0 || spans_ == nullptr) return;
  TraceSpan span;
  span.trace_id = trace.trace_id;
  span.span_id = trace.span_id;
  span.parent_span_id = trace.parent_span_id;
  span.name = name;
  span.start_us = start_us;
  const uint64_t now = NowUs();
  span.duration_us = now > start_us ? now - start_us : 0;
  span.executor = -1;
  spans_->Record(std::move(span));
}

void ExecutorFleet::UpdateClockOffsetLocked(int w, uint64_t daemon_now_us,
                                            uint64_t mid_us) {
  stats_[w].clock_offset_us =
      static_cast<int64_t>(daemon_now_us) - static_cast<int64_t>(mid_us);
}

ExecutorFleet::~ExecutorFleet() { Shutdown(); }

std::string ExecutorFleet::FindExecutordBinary() {
  if (const char* env = std::getenv("SPANGLE_EXECUTORD");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return "";
  exe[n] = '\0';
  std::string dir(exe);
  const size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  // Candidate layouts: next to the caller (installed), the build tree's
  // tools/ dir seen from tests/ or tests/<sub>/, and from the build root.
  const std::string candidates[] = {
      dir + "/spangle_executord",
      dir + "/../tools/spangle_executord",
      dir + "/../../tools/spangle_executord",
      dir + "/tools/spangle_executord",
  };
  for (const auto& c : candidates) {
    if (::access(c.c_str(), X_OK) == 0) return c;
  }
  return "";
}

RpcClientCounters ExecutorFleet::Counters() const {
  RpcClientCounters c;
  c.bytes_sent = &metrics_->rpc_bytes_sent;
  c.bytes_received = &metrics_->rpc_bytes_received;
  c.roundtrips = &metrics_->rpc_roundtrips;
  return c;
}

Status ExecutorFleet::Start() {
  binary_ = options_.executord_path.empty() ? FindExecutordBinary()
                                            : options_.executord_path;
  if (binary_.empty()) {
    return Status::NotFound(
        "spangle_executord binary not found (set SPANGLE_EXECUTORD or "
        "DistributedOptions::executord_path)");
  }
  {
    MutexLock l(&mu_);
    if (started_) return Status::FailedPrecondition("fleet already started");
    slots_.resize(num_executors_);
    for (int w = 0; w < num_executors_; ++w) {
      // blocking-ok: startup path; nothing else contends for mu_ yet.
      const Status st = SpawnLocked(w);
      if (!st.ok()) {
        // blocking-ok: startup unwind; nothing else contends for mu_ yet.
        for (int k = 0; k < w; ++k) KillLocked(k);
        slots_.clear();
        return st;
      }
    }
    started_ = true;
  }
  if (options_.heartbeat_interval_ms > 0) {
    heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  }
  return Status::OK();
}

Status ExecutorFleet::SpawnLocked(int w) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  // argv is fully built before fork: only async-signal-safe calls are
  // allowed in the child.
  std::vector<std::string> args = {
      binary_,
      "--port=0",
      "--executor-id=" + std::to_string(w),
      "--memory-budget=" + std::to_string(options_.executor_memory_budget),
      std::string("--tracing=") + (options_.tracing ? "1" : "0"),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // blocking-ok: spawn/kill must run under mu_ — the slot table and the
  // processes it points at change together, and a concurrent ReportFailure
  // for the same slot must observe either the old daemon or the new one.
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout -> announce pipe, then exec.
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    ::execv(binary_.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipefd[1]);
  // blocking-ok: bounded by spawn_timeout_ms; part of the atomic spawn.
  const uint16_t port = ReadAnnouncedPort(pipefd[0], options_.spawn_timeout_ms);
  ::close(pipefd[0]);
  if (port == 0) {
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    // blocking-ok: reaping a just-SIGKILLed child; returns promptly.
    ::waitpid(pid, &wstatus, 0);
    return Status::IOError("executor " + std::to_string(w) +
                           " did not announce a port within " +
                           std::to_string(options_.spawn_timeout_ms) + "ms");
  }
  auto client = std::make_shared<RpcClient>(port, Counters());
  // blocking-ok: loopback connect to the daemon that just announced; part
  // of the atomic spawn.
  const Status st = client->Connect();
  if (!st.ok()) {
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    // blocking-ok: reaping a just-SIGKILLed child; returns promptly.
    ::waitpid(pid, &wstatus, 0);
    return st;
  }
  slots_[w] = Slot{pid, port, std::move(client), 0};
  return Status::OK();
}

void ExecutorFleet::KillLocked(int w) {
  Slot& s = slots_[w];
  if (s.client != nullptr) s.client->Abort();
  if (s.pid > 0) {
    ::kill(s.pid, SIGKILL);
    int wstatus = 0;
    // blocking-ok: reaping a just-SIGKILLed child; returns promptly.
    ::waitpid(s.pid, &wstatus, 0);
  }
  s = Slot{};
}

void ExecutorFleet::Shutdown() {
  heartbeat_stop_.store(true, std::memory_order_relaxed);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();

  std::vector<Slot> slots;
  {
    MutexLock l(&mu_);
    if (!started_ || shutdown_) return;
    shutdown_ = true;
    slots = slots_;
  }
  // Best-effort graceful stop; a dead daemon just fails the RPC.
  for (auto& s : slots) {
    if (s.client == nullptr) continue;
    (void)s.client->TypedCall<ShutdownRequest, ShutdownResponse>(
        ShutdownRequest());
  }
  for (auto& s : slots) ReapChild(s.pid, /*grace_ms=*/2000);
  MutexLock l(&mu_);
  slots_.clear();
}

pid_t ExecutorFleet::executor_pid(int w) {
  MutexLock l(&mu_);
  if (w < 0 || w >= static_cast<int>(slots_.size())) return -1;
  return slots_[w].pid;
}

std::shared_ptr<RpcClient> ExecutorFleet::ClientFor(int w, pid_t* pid_out) {
  MutexLock l(&mu_);
  if (w < 0 || w >= static_cast<int>(slots_.size())) return nullptr;
  if (pid_out != nullptr) *pid_out = slots_[w].pid;
  return slots_[w].client;
}

void ExecutorFleet::ReportFailure(int w, pid_t expected_pid) {
  MutexLock l(&mu_);
  if (shutdown_ || w < 0 || w >= static_cast<int>(slots_.size())) return;
  Slot& s = slots_[w];
  // pid guard: a concurrent report already replaced this daemon.
  if (s.pid != expected_pid || expected_pid <= 0) return;
  // blocking-ok: kill+respawn must be atomic w.r.t. the slot table — a
  // put or fetch grabbing mu_ mid-restart must never see a half-dead slot.
  KillLocked(w);
  if (!options_.restart_on_failure) return;
  // blocking-ok: see KillLocked above — restart is atomic by design.
  const Status st = SpawnLocked(w);
  if (st.ok()) {
    metrics_->executor_restarts.fetch_add(1, std::memory_order_relaxed);
    MutexLock sl(&stats_mu_);
    stats_[w].restarts++;
  } else {
    SPANGLE_LOG(Warning) << "executor " << w
                         << " restart failed: " << st.ToString();
  }
}

Result<PutBlockResponse> ExecutorFleet::PutBlock(uint64_t node, int partition,
                                                 std::string_view bytes,
                                                 uint64_t content_hash) {
  const int w = partition % num_executors_;
  PutBlockRequest req;
  req.node = node;
  req.partition = partition;
  req.content_hash = content_hash;
  const uint64_t start = StampTrace(&req.trace);
  // The frame is sent from the caller's buffer, between the encoded
  // fields before and after it.
  std::string head, tail;
  req.AppendHead(bytes.size(), &head);
  req.AppendTail(&tail);
  if (head.size() + bytes.size() + tail.size() > kMaxFramePayload) {
    // Too big for any daemon: refuse before sending, so no healthy
    // daemon is mistaken for a dead one (and restarted, losing its
    // shard) over a frame the transport was never going to carry.
    return Status::OutOfRange(
        "PutBlock of " + std::to_string(bytes.size()) +
        " bytes exceeds the RPC frame limit of " +
        std::to_string(kMaxFramePayload) + " bytes");
  }
  Status last = Status::OK();
  // Two attempts: the second lands on the restarted replacement daemon.
  // A hash-validation refusal (the daemon received corrupted bytes)
  // retries the same way — the frame is re-sent from the driver's good
  // copy.
  for (int attempt = 0; attempt < 2; ++attempt) {
    pid_t pid = -1;
    auto client = ClientFor(w, &pid);
    if (client == nullptr) {
      return Status::IOError("executor " + std::to_string(w) + " is down");
    }
    auto reply = client->Call(PutBlockRequest::kType, {head, bytes, tail},
                              PutBlockResponse::kType);
    if (reply.ok()) {
      RecordClientSpan(req.trace, "put_block", start);
      return PutBlockResponse::Parse(reply->data(), reply->size());
    }
    last = reply.status();
    // A hash-validation refusal means the daemon is healthy and its
    // blocks are intact — only the bytes in flight were damaged. Resend
    // without declaring the daemon dead (a restart would lose its whole
    // shard over one corrupt frame).
    if (last.message().find("content hash mismatch") == std::string::npos) {
      ReportFailure(w, pid);
    }
  }
  return last;
}

std::optional<SlicedPayload> ExecutorFleet::FetchBlock(uint64_t node,
                                                       int partition,
                                                       uint64_t* content_hash) {
  const int w = partition % num_executors_;
  pid_t pid = -1;
  auto client = ClientFor(w, &pid);
  if (client == nullptr) return std::nullopt;
  FetchBlockRequest req;
  req.node = node;
  req.partition = partition;
  const uint64_t start = StampTrace(&req.trace);
  std::string payload;
  req.AppendTo(&payload);
  auto reply = client->Call(FetchBlockRequest::kType, payload,
                            FetchBlockResponse::kType);
  RecordClientSpan(req.trace, "fetch_block", start);
  // Parsed in place: the frame stays inside the reply payload.
  auto resp = reply.ok() ? FetchBlockResponseView::Parse(reply->data(),
                                                          reply->size())
                         : Result<FetchBlockResponseView>(reply.status());
  if (!resp.ok()) {
    ReportFailure(w, pid);
    return std::nullopt;
  }
  if (!resp->found) return std::nullopt;
  *content_hash = resp->content_hash;
  return SlicedPayload(*std::move(reply), resp->bytes);
}

bool ExecutorFleet::ProbeBlock(uint64_t node, int partition) {
  const int w = partition % num_executors_;
  pid_t pid = -1;
  auto client = ClientFor(w, &pid);
  if (client == nullptr) return false;
  ProbeBlockRequest req;
  req.node = node;
  req.partition = partition;
  auto resp = client->TypedCall<ProbeBlockRequest, ProbeBlockResponse>(req);
  if (!resp.ok()) {
    ReportFailure(w, pid);
    return false;
  }
  return resp->found;
}

Result<HeartbeatResponse> ExecutorFleet::Heartbeat(int w) {
  static std::atomic<uint64_t> seq{0};
  pid_t pid = -1;
  auto client = ClientFor(w, &pid);
  if (client == nullptr) {
    return Status::IOError("executor " + std::to_string(w) + " is down");
  }
  HeartbeatRequest req;
  req.seq = seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t t0 = NowUs();
  auto resp = client->TypedCall<HeartbeatRequest, HeartbeatResponse>(req);
  const uint64_t t1 = NowUs();
  if (resp.ok()) {
    {
      MutexLock l(&mu_);
      if (w < static_cast<int>(slots_.size())) slots_[w].heartbeat_misses = 0;
    }
    metrics_->heartbeat_rtt_us.Observe(static_cast<double>(t1 - t0));
    // Surface the daemon gauges (they used to be dropped here) and
    // refresh the clock-offset estimate from the RTT midpoint.
    MutexLock sl(&stats_mu_);
    FleetExecutorStats& st = stats_[w];
    st.blocks_held = resp->blocks_held;
    st.bytes_in_memory = resp->bytes_in_memory;
    UpdateClockOffsetLocked(w, resp->now_us, t0 + (t1 - t0) / 2);
    return resp;
  }
  metrics_->heartbeat_misses.fetch_add(1, std::memory_order_relaxed);
  bool fail = false;
  {
    MutexLock l(&mu_);
    if (!shutdown_ && w < static_cast<int>(slots_.size()) &&
        slots_[w].pid == pid) {
      fail = ++slots_[w].heartbeat_misses >= options_.heartbeat_miss_limit;
    }
  }
  if (fail) ReportFailure(w, pid);
  return resp.status();
}

void ExecutorFleet::FailExecutor(int w) {
  pid_t pid = -1;
  {
    MutexLock l(&mu_);
    if (shutdown_ || w < 0 || w >= static_cast<int>(slots_.size())) return;
    pid = slots_[w].pid;
  }
  if (pid > 0) ::kill(pid, SIGKILL);
  ReportFailure(w, pid);
}

void ExecutorFleet::HeartbeatLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.heartbeat_interval_ms);
  while (!heartbeat_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(interval);
    if (heartbeat_stop_.load(std::memory_order_relaxed)) return;
    // discard-ok: a failed heartbeat already routed through ReportFailure;
    // the loop itself never aborts on one dead executor.
    for (int w = 0; w < num_executors_; ++w) (void)Heartbeat(w);
    // Piggyback the stats pull on the heartbeat cadence: draining the
    // daemon span rings mid-job is what keeps a later SIGKILL from
    // erasing the victim's spans.
    ScrapeAll();
  }
}

Status ExecutorFleet::ScrapeStats(int w) {
  pid_t pid = -1;
  auto client = ClientFor(w, &pid);
  if (client == nullptr) {
    return Status::IOError("executor " + std::to_string(w) + " is down");
  }
  StatsRequest req;
  const uint64_t t0 = NowUs();
  auto resp = client->TypedCall<StatsRequest, StatsResponse>(req);
  const uint64_t t1 = NowUs();
  if (!resp.ok()) return resp.status();

  MutexLock sl(&stats_mu_);
  FleetExecutorStats& st = stats_[w];
  st.scraped = true;
  st.blocks_held = resp->blocks_held;
  st.bytes_in_memory = resp->bytes_in_memory;
  st.spans_dropped = resp->spans_dropped;
  UpdateClockOffsetLocked(w, resp->now_us, t0 + (t1 - t0) / 2);
  st.metric_names.clear();
  st.metric_kinds.clear();
  st.metric_values.clear();
  st.metric_names.reserve(resp->metrics.size());
  st.metric_kinds.reserve(resp->metrics.size());
  st.metric_values.reserve(resp->metrics.size());
  for (const StatsMetric& m : resp->metrics) {
    st.metric_names.push_back(m.name);
    st.metric_kinds.push_back(m.kind);
    st.metric_values.push_back(m.value);
  }
  // Accumulate drained spans driver-side, shifted onto the driver epoch
  // with the offset just estimated; they now outlive the daemon.
  for (const StatsSpan& s : resp->spans) {
    if (collected_spans_.size() >= kMaxCollectedSpans) {
      collected_spans_.pop_front();
      collected_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    TraceSpan span;
    span.trace_id = s.trace_id;
    span.span_id = s.span_id;
    span.parent_span_id = s.parent_span_id;
    span.name = s.name;
    const int64_t aligned =
        static_cast<int64_t>(s.start_us) - st.clock_offset_us;
    span.start_us = aligned > 0 ? static_cast<uint64_t>(aligned) : 0;
    span.duration_us = s.duration_us;
    span.executor = w;
    collected_spans_.push_back(std::move(span));
  }
  return Status::OK();
}

void ExecutorFleet::ScrapeAll() {
  // discard-ok: best-effort stats pull; a dead executor simply contributes
  // nothing this round.
  for (int w = 0; w < num_executors_; ++w) (void)ScrapeStats(w);
}

std::vector<FleetExecutorStats> ExecutorFleet::ExecutorStats() const {
  MutexLock l(&stats_mu_);
  return stats_;
}

std::vector<TraceSpan> ExecutorFleet::CollectedSpans() const {
  MutexLock l(&stats_mu_);
  return std::vector<TraceSpan>(collected_spans_.begin(),
                                collected_spans_.end());
}

}  // namespace net
}  // namespace spangle
