#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bitmask/popcount.h"
#include "common/mutex.h"

namespace perfbench {

namespace {

// Set-ups per run (setup_s is their median): at least kMinSetups, more
// while they add up to under kSetupSeconds, at most kMaxSetups.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;

// The end-to-end metrics, in BENCHMARK.json order.
struct MetricName {
  const char* name;
  const char* unit;
};
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"round_s", "s"},
    {"op_median_ms", "ms"},
};

// The per-layer metrics, in BENCHMARK.json order. Names follow the
// repository's modules so later changes can say which layer they moved.
constexpr MetricName kPerLayer[] = {
    {"bitmask.count_gb_s", "GB/s"},
    {"bitmask.and_gb_s", "GB/s"},
    {"array.mode_transitions", "count"},
    {"array.resident_mb", "MiB"},
    {"ops.task_busy_s", "s"},
    {"engine.scheduler.stages", "count"},
    {"engine.scheduler.tasks", "count"},
    {"engine.scheduler.stage_s", "s"},
    {"engine.scheduler.driver_gap_s", "s"},
    {"engine.executor_pool.util", "fraction"},
    {"engine.executor_pool.skew", "ratio"},
    {"engine.shuffle.mb", "MiB"},
    {"engine.shuffle.records", "count"},
    {"engine.shuffle.map_s", "s"},
    {"engine.shuffle.reduce_s", "s"},
    {"engine.block_manager.hit_ratio", "fraction"},
    {"engine.block_manager.high_water_mb", "MiB"},
    {"engine.block_manager.evictions", "count"},
    {"engine.block_manager.spilled_mb", "MiB"},
    {"engine.block_manager.dedup_hits", "count"},
    {"codec.encode_s", "s"},
    {"codec.ratio", "ratio"},
    {"codec.encode_mb_s", "MB/s"},
    {"codec.decode_mb_s", "MB/s"},
    {"net.rpc_mb", "MiB"},
    {"net.roundtrips", "count"},
    {"net.fetch_wait_s", "s"},
    {"net.put_mb_s", "MB/s"},
    {"net.fetch_mb_s", "MB/s"},
    {"matrix.tile_multiply_us_sparse", "us"},
    {"matrix.tile_multiply_us_dense", "us"},
    {"ml.pagerank_iter_ms", "ms"},
    {"ml.sgd_iter_ms", "ms"},
    {"ml.sgd_iterations", "count"},
    {"engine.job_server.queue_wait_p50_ms", "ms"},
    {"engine.job_server.run_p50_ms", "ms"},
    {"engine.job_server.admission_queued", "count"},
    {"engine.result_cache.hit_ratio", "fraction"},
    {"unattributed_s", "s"},
    {"trace_overhead_frac", "ratio"},
};

constexpr double kMiB = 1024.0 * 1024.0;

std::atomic<bool> g_corrupt_pending{false};

/// Minimal JSON object builder: keys in insertion order, numbers with
/// all their digits.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string NumArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Returns freed heap to the OS and restarts the kernel's peak-RSS
/// (VmHWM) tracking; false where the kernel does not allow it.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident MiB since ResetPeakRss() succeeded, else since start.
double PeakRssMb(bool since_reset) {
  if (since_reset) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
      }
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

uint64_t ThreadNumber() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t id = next.fetch_add(1);
  return id;
}

// Open spans on this thread, innermost last (span ids).
thread_local std::vector<uint64_t> t_open_spans;

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

std::string ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return "--trace takes 0 or 1";
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') return "bad value for " + flag;
  }
  if (!have_workload) return "--workload is required";
  if (!(args->seconds > 0) || !(args->scale > 0)) {
    return "--seconds and --scale must be positive";
  }
  return "";
}

double NowSeconds() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void KeepAlive(uint64_t v) {
  static std::atomic<uint64_t> sink{0};
  sink.fetch_xor(v, std::memory_order_relaxed);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- counters and attribution ---------------------------------------------

Counters ReadCounters(const EngineMetrics& m) {
  Counters c{};
  c[kStages] = m.stages_run.load();
  c[kTasks] = m.tasks_run.load();
  c[kTaskUs] = m.task_time_us.load();
  c[kShuffleBytes] = m.shuffle_bytes.load();
  c[kShuffleRecords] = m.shuffle_records.load();
  c[kCacheHits] = m.cache_hits.load();
  c[kCacheMisses] = m.cache_misses.load();
  c[kEvictions] = m.evictions.load();
  c[kSpilledBytes] = m.spilled_bytes.load();
  c[kDedupHits] = m.shuffle_block_dedup_hits.load();
  c[kCodecRaw] = m.codec_bytes_raw.load();
  c[kCodecEncoded] = m.codec_bytes_encoded.load();
  c[kCodecEncodeUs] = m.codec_encode_time_us.load();
  c[kRpcBytes] = m.rpc_bytes_sent.load() + m.rpc_bytes_received.load();
  c[kRpcRoundtrips] = m.rpc_roundtrips.load();
  c[kRemoteFetchUs] = m.remote_fetch_time_us.load();
  c[kModeTransitions] = m.mode_transitions.load();
  c[kAdmissionQueued] = m.admission_queued.load();
  c[kResultCacheHits] = m.result_cache_hits.load();
  c[kResultCacheMisses] = m.result_cache_misses.load();
  return c;
}

Counters Diff(const Counters& after, const Counters& before) {
  Counters d{};
  for (int i = 0; i < kNumCounters; ++i) {
    d[i] = after[i] >= before[i] ? after[i] - before[i] : 0;
  }
  return d;
}

void Accumulate(Counters* into, const Counters& d) {
  for (int i = 0; i < kNumCounters; ++i) (*into)[i] += d[i];
}

void Attribution::Add(const Attribution& o) {
  wall_s += o.wall_s;
  stage_s += o.stage_s;
  driver_gap_s += o.driver_gap_s;
  unattributed_s += o.unattributed_s;
  map_s += o.map_s;
  reduce_s += o.reduce_s;
  skew_sum += o.skew_sum;
  skew_n += o.skew_n;
  Accumulate(&counters, o.counters);
}

namespace {
bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}
}  // namespace

Attribution Attribute(double wall_s, const std::vector<StageStat>& stages,
                      const Counters& counters) {
  Attribution a;
  a.wall_s = wall_s;
  a.counters = counters;
  std::vector<std::pair<uint64_t, uint64_t>> spans;
  spans.reserve(stages.size());
  for (const StageStat& s : stages) {
    spans.emplace_back(s.start_us, s.start_us + s.wall_us);
    const double w = static_cast<double>(s.wall_us) / 1e6;
    if (EndsWith(s.name, "/map")) a.map_s += w;
    if (EndsWith(s.name, "/reduce")) a.reduce_s += w;
    if (s.num_tasks > 1) {
      a.skew_sum += s.skew_ratio;
      ++a.skew_n;
    }
  }
  if (!spans.empty()) {
    std::sort(spans.begin(), spans.end());
    uint64_t union_us = 0;
    uint64_t cur_lo = spans[0].first, cur_hi = spans[0].second;
    uint64_t last_end = cur_hi;
    for (const auto& [lo, hi] : spans) {
      last_end = std::max(last_end, hi);
      if (lo > cur_hi) {
        union_us += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    union_us += cur_hi - cur_lo;
    a.stage_s = static_cast<double>(union_us) / 1e6;
    a.driver_gap_s =
        static_cast<double>(last_end - spans[0].first) / 1e6 - a.stage_s;
  }
  a.unattributed_s = wall_s - a.stage_s - a.driver_gap_s;
  return a;
}

std::vector<StageStat> StagesSince(const EngineMetrics& m, uint64_t after_seq,
                                   uint64_t* max_seq) {
  std::vector<StageStat> all = m.StageStats();
  std::vector<StageStat> out;
  uint64_t hi = after_seq;
  for (StageStat& s : all) {
    hi = std::max(hi, s.seq);
    if (s.seq > after_seq) out.push_back(std::move(s));
  }
  if (max_seq != nullptr) *max_seq = hi;
  return out;
}

// ---- spans ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer)
    : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span s;
  s.id = tracer_->next_id_.fetch_add(1);
  s.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  s.name = name;
  s.layer = layer;
  s.thread = ThreadNumber();
  s.start_s = NowSeconds();
  id_ = s.id;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(std::move(s));
  }
  t_open_spans.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double end = NowSeconds();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[index_].end_s = end;
}

void Tracer::AddStages(const std::vector<StageStat>& stages,
                       double epoch_offset_s, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StageStat& st : stages) {
    Span s;
    s.id = next_id_.fetch_add(1);
    s.parent = parent;
    s.name = st.name;
    s.layer = EndsWith(st.name, "/map") || EndsWith(st.name, "/reduce")
                  ? "engine.shuffle"
                  : "engine.scheduler";
    s.thread = 0;  // engine lane
    s.start_s = static_cast<double>(st.start_us) / 1e6 + epoch_offset_s;
    s.end_s = s.start_s + static_cast<double>(st.wall_us) / 1e6;
    spans_.push_back(std::move(s));
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  static_cast<unsigned long long>(s.thread), s.start_s * 1e6,
                  std::max(0.0, s.end_s - s.start_s) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out << (i ? ",\n" : "\n") << "{\"name\":" << Json::Quote(s.name)
        << ",\"cat\":" << Json::Quote(s.layer) << "," << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- operations -------------------------------------------------------------

Op::Op(Tracer* tracer, Context* ctx, const std::string& kind, bool traced)
    : tracer_(tracer), ctx_(ctx), kind_(kind), traced_(traced) {}

Op::~Op() = default;

void Op::Start() {
  if (traced_ && ctx_ != nullptr) {
    before_ = ReadCounters(ctx_->metrics());
    StagesSince(ctx_->metrics(), 0, &seq_before_);
    epoch_offset_s_ =
        NowSeconds() - static_cast<double>(ctx_->NowMicros()) / 1e6;
  }
  span_ = std::make_unique<Tracer::Scope>(traced_ ? tracer_ : nullptr,
                                          kind_.c_str(), "bench.op");
  start_s_ = NowSeconds();
}

void Op::Stop() {
  wall_s_ = NowSeconds() - start_s_;
  const uint64_t op_span = span_->id();
  span_.reset();
  if (!traced_ || ctx_ == nullptr) return;
  const Counters after = ReadCounters(ctx_->metrics());
  const std::vector<StageStat> stages =
      StagesSince(ctx_->metrics(), seq_before_, nullptr);
  attribution_ = Attribute(wall_s_, stages, Diff(after, before_));
  if (op_span != 0) tracer_->AddStages(stages, epoch_offset_s_, op_span);
}

double Op::Answer(double v) {
  return g_corrupt_pending.exchange(false) ? v + 1.0 : v;
}

void Op::set_corrupt(bool corrupt) { g_corrupt_pending.store(corrupt); }

// ---- measurement loop -------------------------------------------------------

void Workload::Measure(Harness* h) {
  const std::vector<std::string> kinds = OpKinds();
  Tracer* tracer = h->tracer();
  // Warm-up round: lets caches fill and lazy set-up finish. Unrecorded.
  tracer->set_active(false);
  for (size_t k = 0; k < kinds.size(); ++k) {
    Op op(tracer, context(), kinds[k], false);
    (void)RunOp(static_cast<int>(k), &op);
  }
  Op::set_corrupt(h->args().corrupt);
  const double t_end = NowSeconds() + h->args().seconds;
  for (int r = 0; r < 2 || NowSeconds() < t_end; ++r) {
    const bool traced = h->TracedRound(r);
    tracer->set_active(traced);
    double round_wall = 0;
    for (size_t k = 0; k < kinds.size(); ++k) {
      Op op(tracer, context(), kinds[k], traced);
      const bool ok = RunOp(static_cast<int>(k), &op);
      h->Record({static_cast<int>(k), r, op.wall_s(), ok, traced},
                traced ? &op.attribution() : nullptr);
      round_wall += op.wall_s();
    }
    tracer->set_active(false);
    h->RecordRound(round_wall, traced);
    if (NeedsFreshSetup(r)) h->TimedSetup();
  }
}

void Harness::TimedSetup() {
  Tracer::Scope span(&tracer_, "setup", "bench.setup");
  const double t0 = NowSeconds();
  w_->Setup(&tracer_);
  setup_s.push_back(NowSeconds() - t0);
}

void Harness::Record(const OpSample& s, const Attribution* a) {
  samples.push_back(s);
  if (a == nullptr) return;
  traced_total.Add(*a);
  if (traced_by_kind.size() <= static_cast<size_t>(s.kind)) {
    traced_by_kind.resize(s.kind + 1);
  }
  traced_by_kind[s.kind].Add(*a);
}

void Harness::RecordRound(double wall_s, bool traced) {
  round_s[traced ? 1 : 0].push_back(wall_s);
  if (traced) ++traced_rounds;
}

int Harness::Run() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(args_.out_dir, ec);
  const std::string tag =
      args_.workload + "-seed" + std::to_string(args_.seed) + "-trace" +
      (args_.trace ? "1" : "0");

  double t = NowSeconds();
  w_->Generate(args_.seed, args_.scale);
  std::fprintf(stderr, "[perfbench] %s: inputs generated in %.2fs\n",
               args_.workload.c_str(), NowSeconds() - t);

  tracer_.set_active(args_.trace);
  TimedSetup();
  tracer_.set_active(false);

  t = NowSeconds();
  const std::string tmp_dir =
      args_.out_dir + "/tmp-" + tag + "-" + std::to_string(::getpid());
  fs::create_directories(tmp_dir, ec);
  w_->ComputeReferences(tmp_dir);
  fs::remove_all(tmp_dir, ec);
  std::fprintf(stderr, "[perfbench] references computed in %.2fs\n",
               NowSeconds() - t);
  // Peak memory counts from here: the reference computations are the
  // benchmark's, not the system's.
  const bool rss_reset = ResetPeakRss();

  // More set-ups for a steady median: at least kMinSetups, and for a
  // cheap set-up as many as fit in kSetupSeconds.
  tracer_.set_active(args_.trace);
  double setup_total = setup_s[0];
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    TimedSetup();
    setup_total += setup_s.back();
  }
  tracer_.set_active(false);

  w_->Measure(this);

  Values layer_values;
  if (args_.trace) layer_values = w_->LayerValues();
  const Values traffic = w_->Traffic();
  const double rss = PeakRssMb(rss_reset);
  if (args_.trace) {
    const std::string path = args_.out_dir + "/" + tag + ".spans.json";
    if (!tracer_.Write(path)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[perfbench] %zu spans written to %s\n",
                 tracer_.size(), path.c_str());
  }
  Report(args_.out_dir + "/" + tag + ".json", rss, traffic, layer_values);
  return 0;
}

void Harness::Report(const std::string& path, double peak_rss_mb,
                     const Values& traffic,
                     const Values& layer_values) {
  const std::vector<std::string> kinds = w_->OpKinds();
  uint64_t failed = 0;
  for (const OpSample& s : samples) failed += s.ok ? 0 : 1;
  const uint64_t attempted = samples.size();

  // Named per-kind timings from the untraced operations.
  Json named_json;
  std::vector<double> kind_medians_ms;
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::vector<double> walls;
    double kind_failed = 0;
    for (const OpSample& s : samples) {
      if (s.kind != static_cast<int>(k)) continue;
      kind_failed += s.ok ? 0 : 1;
      if (!s.traced) walls.push_back(s.wall_s);
    }
    kind_medians_ms.push_back(Median(walls) * 1e3);
    Json j;
    j.Num("median", Median(walls))
        .Num("p25", Quantile(walls, 0.25))
        .Num("p75", Quantile(walls, 0.75))
        .Num("n", static_cast<double>(walls.size()))
        .Num("failed", kind_failed);
    named_json.Raw(kinds[k] + "_s", j.str());
  }
  for (const auto& [name, v] : named) named_json.Num(name, v);

  const double op_median_ms = latency_ms_override.empty()
                                  ? GeoMean(kind_medians_ms)
                                  : Median(latency_ms_override);
  const double e2e_values[] = {Median(setup_s), peak_rss_mb,
                               Median(round_s[0]), op_median_ms};

  Json metrics;
  Json end_to_end;
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    Json m;
    m.Num("value", e2e_values[i]).Str("unit", kEndToEnd[i].unit);
    end_to_end.Raw(kEndToEnd[i].name, m.str());
  }

  // Per-layer metrics: per-round means over the traced rounds, plus what
  // the workload measured itself.
  Json per_layer;
  Json per_kind_json;
  if (args_.trace) {
    const Attribution& a = traced_total;
    const double rounds = std::max(1, traced_rounds);
    const Counters& c = a.counters;
    auto per_round = [&](Counter k) { return static_cast<double>(c[k]) / rounds; };
    const double cache_lookups =
        static_cast<double>(c[kCacheHits] + c[kCacheMisses]);
    const double rc_lookups =
        static_cast<double>(c[kResultCacheHits] + c[kResultCacheMisses]);
    const int workers = w_->context()->num_workers();
    const double overhead = Median(round_s[0]) > 0
                                ? Median(round_s[1]) / Median(round_s[0])
                                : 0;
    Values computed = {
        {"array.mode_transitions", per_round(kModeTransitions)},
        {"ops.task_busy_s", per_round(kTaskUs) / 1e6},
        {"engine.scheduler.stages", per_round(kStages)},
        {"engine.scheduler.tasks", per_round(kTasks)},
        {"engine.scheduler.stage_s", a.stage_s / rounds},
        {"engine.scheduler.driver_gap_s", a.driver_gap_s / rounds},
        {"engine.executor_pool.util",
         a.wall_s > 0 ? static_cast<double>(c[kTaskUs]) / 1e6 /
                            (a.wall_s * workers)
                      : 0},
        {"engine.executor_pool.skew", a.skew_n ? a.skew_sum / a.skew_n : 0},
        {"engine.shuffle.mb", per_round(kShuffleBytes) / kMiB},
        {"engine.shuffle.records", per_round(kShuffleRecords)},
        {"engine.shuffle.map_s", a.map_s / rounds},
        {"engine.shuffle.reduce_s", a.reduce_s / rounds},
        {"engine.block_manager.hit_ratio",
         cache_lookups > 0 ? static_cast<double>(c[kCacheHits]) / cache_lookups
                           : 0},
        {"engine.block_manager.high_water_mb",
         static_cast<double>(
             w_->context()->metrics().memory_high_water.load()) /
             kMiB},
        {"engine.block_manager.evictions", per_round(kEvictions)},
        {"engine.block_manager.spilled_mb", per_round(kSpilledBytes) / kMiB},
        {"engine.block_manager.dedup_hits", per_round(kDedupHits)},
        {"codec.encode_s", per_round(kCodecEncodeUs) / 1e6},
        {"codec.ratio", c[kCodecEncoded] > 0
                            ? static_cast<double>(c[kCodecRaw]) /
                                  static_cast<double>(c[kCodecEncoded])
                            : 0},
        {"net.rpc_mb", per_round(kRpcBytes) / kMiB},
        {"net.roundtrips", per_round(kRpcRoundtrips)},
        {"net.fetch_wait_s", per_round(kRemoteFetchUs) / 1e6},
        {"engine.job_server.admission_queued", per_round(kAdmissionQueued)},
        {"engine.result_cache.hit_ratio",
         rc_lookups > 0 ? static_cast<double>(c[kResultCacheHits]) / rc_lookups
                        : 0},
        {"unattributed_s", a.unattributed_s / rounds},
        {"trace_overhead_frac", overhead},
    };
    auto lookup = [](const Values& vs, const std::string& name, double* out) {
      for (const auto& [n, v] : vs) {
        if (n == name) {
          *out = v;
          return true;
        }
      }
      return false;
    };
    for (const MetricName& m : kPerLayer) {
      double v = 0;
      if (!lookup(layer_values, m.name, &v)) lookup(computed, m.name, &v);
      Json j;
      j.Num("value", v).Str("unit", m.unit);
      per_layer.Raw(m.name, j.str());
    }
    metrics = per_layer;

    // Where each kind's wall time went, as means per traced operation
    // (serving attributes whole batches, under its one kind).
    for (size_t k = 0; k < kinds.size() && k < traced_by_kind.size(); ++k) {
      const Attribution& ka = traced_by_kind[k];
      double n = 0;
      for (const OpSample& s : samples) {
        n += s.kind == static_cast<int>(k) && s.traced ? 1 : 0;
      }
      n = std::max(n, 1.0);
      Json j;
      j.Num("wall_s", ka.wall_s / n)
          .Num("stage_s", ka.stage_s / n)
          .Num("driver_gap_s", ka.driver_gap_s / n)
          .Num("unattributed_s", ka.unattributed_s / n)
          .Num("shuffle_mb",
               static_cast<double>(ka.counters[kShuffleBytes]) / kMiB / n)
          .Num("codec_encode_s",
               static_cast<double>(ka.counters[kCodecEncodeUs]) / 1e6 / n)
          .Num("task_busy_s",
               static_cast<double>(ka.counters[kTaskUs]) / 1e6 / n)
          .Num("ops", n);
      per_kind_json.Raw(kinds[k], j.str());
    }
  } else {
    metrics = end_to_end;
  }

  Json result;
  result.Bool("correct", failed == 0 && attempted > 0)
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Raw("metrics", metrics.str());

  Json cpu;
  cpu.Bool("avx2", spangle::Avx2Available())
      .Num("nproc", std::thread::hardware_concurrency());
  Json run;
  run.Str("workload", args_.workload)
      .Num("seed", static_cast<double>(args_.seed))
      .Num("seconds", args_.seconds)
      .Bool("trace", args_.trace)
      .Num("scale", args_.scale)
      .Str("git_sha", EnvOr("PERFBENCH_GIT_SHA", "unknown"))
      .Str("source_digest", EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown"))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("lock_rank_checks", spangle::kLockRankChecksEnabled)
      .Str("compiler", __VERSION__)
      .Raw("cpu", cpu.str())
      .Num("workers", w_->context()->num_workers());
  Json traffic_json;
  for (const auto& [name, v] : traffic) traffic_json.Num(name, v);

  Json record;
  record.Raw("run", run.str())
      .Raw("result", result.str())
      .Raw("end_to_end", end_to_end.str())
      .Raw("named", named_json.str())
      .Raw("traffic", traffic_json.str())
      .Raw("setup_samples_s", NumArray(setup_s))
      .Raw("round_samples_s", NumArray(round_s[0]))
      .Raw("traced_round_samples_s", NumArray(round_s[1]));
  if (args_.trace) {
    record.Raw("per_layer", per_layer.str())
        .Raw("per_kind_traced", per_kind_json.str())
        .Num("traced_rounds", traced_rounds);
  }
  std::ofstream(path) << record.str() << "\n";

  std::fprintf(stderr,
               "[perfbench] %s: %llu ops, %llu failed, %zu rounds; "
               "record %s\n",
               args_.workload.c_str(),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               round_s[0].size() + round_s[1].size(), path.c_str());
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::fprintf(stderr, "  %-16s median %.4fs\n", kinds[k].c_str(),
                 kind_medians_ms[k] / 1e3);
  }
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
