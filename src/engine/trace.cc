#include "engine/trace.h"

#include <cinttypes>

namespace spangle {

namespace trace {

namespace {
thread_local TraceContext tl_trace_ctx;
}  // namespace

TraceContext Current() { return tl_trace_ctx; }

void SetThreadContext(const TraceContext& ctx) { tl_trace_ctx = ctx; }

ScopedContext::ScopedContext(const TraceContext& ctx) : prev_(tl_trace_ctx) {
  tl_trace_ctx = ctx;
}

ScopedContext::~ScopedContext() { tl_trace_ctx = prev_; }

}  // namespace trace

void SpanRecorder::Record(TraceSpan span) {
  MutexLock lock(&mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ring_.push_back(std::move(span));
}

std::vector<TraceSpan> SpanRecorder::Drain() {
  MutexLock lock(&mu_);
  std::vector<TraceSpan> out(ring_.begin(), ring_.end());
  ring_.clear();
  return out;
}

std::vector<TraceSpan> SpanRecorder::Snapshot() const {
  MutexLock lock(&mu_);
  return std::vector<TraceSpan>(ring_.begin(), ring_.end());
}

namespace trace {

namespace {

// Span names are engine-internal identifiers, but escape the two JSON
// killers anyway so a bad name can never corrupt the trace file.
std::string JsonSafe(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back('?');
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void WriteSpanEvents(std::FILE* f, const std::vector<TraceSpan>& spans) {
  // One process_name metadata record per daemon pid present.
  bool daemon_seen[256] = {false};
  for (const TraceSpan& s : spans) {
    if (s.executor >= 0 && s.executor < 256 && !daemon_seen[s.executor]) {
      daemon_seen[s.executor] = true;
      std::fprintf(f,
                   ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                   "\"args\":{\"name\":\"executord %d\"}}",
                   kDaemonPidBase + s.executor, s.executor);
    }
  }
  bool driver_seen = false;
  for (const TraceSpan& s : spans) {
    if (s.executor < 0 && !driver_seen) {
      driver_seen = true;
      std::fprintf(f,
                   ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                   "\"args\":{\"name\":\"driver rpc\"}}",
                   kDriverRpcPid);
    }
  }
  for (const TraceSpan& s : spans) {
    const int pid =
        s.executor < 0 ? kDriverRpcPid : kDaemonPidBase + s.executor;
    // Spread concurrent spans across a few lanes so overlapping RPCs
    // don't all stack on one row; the lane is cosmetic.
    const unsigned tid = static_cast<unsigned>(s.span_id & 0x7);
    std::fprintf(
        f,
        ",\n{\"name\":\"%s\",\"cat\":\"rpc\",\"ph\":\"X\",\"ts\":%" PRIu64
        ",\"dur\":%" PRIu64 ",\"pid\":%d,\"tid\":%u,\"args\":{"
        "\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
        ",\"parent_span_id\":%" PRIu64 "}}",
        JsonSafe(s.name).c_str(), s.start_us, s.duration_us, pid, tid,
        s.trace_id, s.span_id, s.parent_span_id);
    if (s.executor < 0) {
      // Flow start anchored at the end of the driver client span.
      std::fprintf(f,
                   ",\n{\"name\":\"rpc\",\"cat\":\"rpc\",\"ph\":\"s\","
                   "\"id\":%" PRIu64 ",\"ts\":%" PRIu64
                   ",\"pid\":%d,\"tid\":%u}",
                   s.span_id, s.start_us, pid, tid);
    } else if (s.parent_span_id != 0) {
      // Flow finish at the daemon serve span, keyed on the driver span
      // id it parents under.
      std::fprintf(f,
                   ",\n{\"name\":\"rpc\",\"cat\":\"rpc\",\"ph\":\"f\","
                   "\"bp\":\"e\",\"id\":%" PRIu64 ",\"ts\":%" PRIu64
                   ",\"pid\":%d,\"tid\":%u}",
                   s.parent_span_id, s.start_us, pid, tid);
    }
  }
}

}  // namespace trace

}  // namespace spangle
