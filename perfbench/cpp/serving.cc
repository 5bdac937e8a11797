// serving: a JobServer with the result cache on and four sessions, each a
// closed loop on its own submitter thread. Jobs are LOCAL reduceByKey
// plans with declared lineage digests: a fixed share repeat a few hot
// plans (result-cache hits) and the rest carry a fresh digest (misses that
// run the plan). Time goes mostly to engine.job_server and
// engine.result_cache queueing, admission and hits, plus per-job
// scheduler overhead on small shuffles.

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "engine/job_server.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace spangle;  // NOLINT(google-build-using-namespace)

using Record = std::pair<uint64_t, double>;

constexpr int kSessions = 4;
constexpr int kVariants = 16;    // distinct plans; the first kHot are hot
constexpr int kHot = 4;
constexpr double kHotShare = 0.25;  // keeps the median latency a miss
constexpr uint64_t kKeys = 4096;    // source keys
constexpr uint64_t kGroups = 128;   // result rows per plan
constexpr int kBatch = 64;          // jobs per round
constexpr int kWarmupJobsPerSession = 32;
// Jobs per session between JobServer restarts: a multiple of kBatch /
// kSessions, and small enough that an epoch's ~3 stages per miss fit the
// 8192-record StageStats ring the traced run reads once per epoch.
constexpr int kEpochJobsPerSession = 512;
constexpr uint64_t kFreshDigestBase = uint64_t{1} << 62;

struct JobSample {
  double latency_ms = 0;
  bool ok = true;
  bool traced = false;
  bool hot = false;
  uint64_t wait_us = 0, run_us = 0;
};

class ServingWorkload : public Workload {
 public:
  std::vector<std::string> OpKinds() const override { return {"serve_job"}; }

  void Generate(uint64_t seed, double scale) override {
    seed_ = seed;
    const auto n = std::max<uint64_t>(4096, static_cast<uint64_t>(65536 * scale));
    Rng rng(seed);
    input_.resize(n);
    for (Record& r : input_) {
      r.first = rng.NextBounded(kKeys);
      r.second = static_cast<double>(rng.NextBounded(100));
    }
  }

  void Setup(Tracer* tracer) override {
    server_.reset();
    source_ = PairRdd<uint64_t, double>();
    ctx_.reset();
    {
      Tracer::Scope s(tracer, "Context::Context", "engine");
      ctx_ = std::make_unique<Context>(4);
    }
    {
      Tracer::Scope s(tracer, "Context::Parallelize", "engine");
      source_ = PairRdd<uint64_t, double>(ctx_->Parallelize(input_));
      source_.Cache();
      (void)source_.AsRdd().Count();
    }
    Tracer::Scope s(tracer, "JobServer::JobServer", "engine.job_server");
    StartServer();
  }

  void ComputeReferences(const std::string&) override {
    for (int v = 0; v < kVariants; ++v) {
      std::vector<Record> rows = Plan(source_, v).AsRdd().Collect();
      std::sort(rows.begin(), rows.end());
      refs_.push_back(std::move(rows));
    }
  }

  Context* context() override { return ctx_.get(); }

  bool RunOp(int, Op*) override { return false; }  // Measure() drives jobs

  void Measure(Harness* h) override {
    Tracer* tracer = h->tracer();
    tracer->set_active(false);
    std::atomic<uint64_t> fresh{0};
    RunSessions(h, 0, kWarmupJobsPerSession, &fresh, nullptr);
    Op::set_corrupt(h->args().corrupt);
    std::vector<JobSample> jobs;
    Counters window{};
    const double t_end = NowSeconds() + h->args().seconds;
    while (NowSeconds() < t_end) {
      if (!jobs.empty()) StartServer();  // a new epoch
      const Counters before = ReadCounters(ctx_->metrics());
      uint64_t epoch_seq = 0;
      if (h->args().trace) StagesSince(ctx_->metrics(), 0, &epoch_seq);
      const double epoch_offset_s =
          NowSeconds() - static_cast<double>(ctx_->NowMicros()) / 1e6;
      batch_counters_ = before;
      RunSessions(h, t_end, kEpochJobsPerSession, &fresh, &jobs);
      Accumulate(&window, Diff(ReadCounters(ctx_->metrics()), before));
      if (h->args().trace) AttributeBatches(h, epoch_seq, epoch_offset_s);
    }

    std::vector<double> untraced_ms;
    double hot = 0;
    for (const JobSample& j : jobs) {
      h->Record({0, 0, j.latency_ms / 1e3, j.ok, j.traced}, nullptr);
      if (!j.traced) untraced_ms.push_back(j.latency_ms);
      hot += j.hot ? 1 : 0;
      wait_ms_.push_back(static_cast<double>(j.wait_us) / 1e3);
      run_ms_.push_back(static_cast<double>(j.run_us) / 1e3);
    }
    h->latency_ms_override = untraced_ms;
    const double batch_s = Median(h->round_s[0]);
    h->named = {
        {"serve_jobs_per_s", batch_s > 0 ? kBatch / batch_s : 0},
        {"serve_p50_ms", Quantile(untraced_ms, 0.5)},
        {"serve_p90_ms", Quantile(untraced_ms, 0.9)},
    };
    const double lookups = static_cast<double>(window[kResultCacheHits] +
                                               window[kResultCacheMisses]);
    traffic_ = {
        {"jobs", static_cast<double>(jobs.size())},
        {"repeated_plan_share", jobs.empty() ? 0 : hot / jobs.size()},
        {"result_cache_hit_ratio",
         lookups > 0 ? window[kResultCacheHits] / lookups : 0},
        {"sessions", kSessions},
        {"source_records", static_cast<double>(input_.size())},
    };
  }

  Values Traffic() override { return traffic_; }

  Values LayerValues() override {
    return {
        {"engine.job_server.queue_wait_p50_ms", Median(wait_ms_)},
        {"engine.job_server.run_p50_ms", Median(run_ms_)},
    };
  }

 private:
  static uint64_t HotDigest(int v) { return 1000 + static_cast<uint64_t>(v); }

  /// Plan `v`: re-key the source into kGroups groups, then sum per group.
  static PairRdd<uint64_t, double> Plan(const PairRdd<uint64_t, double>& src,
                                        int v) {
    const uint64_t mult = 2 * static_cast<uint64_t>(v) + 1;
    const uint64_t add = static_cast<uint64_t>(v);
    PairRdd<uint64_t, double> keyed(src.AsRdd().Map([mult, add](const Record& r) {
      return Record((r.first * mult + add) % kGroups, r.second);
    }));
    return keyed.ReduceByKey([](const double& a, const double& b) { return a + b; });
  }

  /// Submits plan `v` under `digest`. The plan is built inside the job and
  /// dropped when it returns, so finished jobs hold no shuffle blocks.
  Result<JobServer::JobId> Submit(JobServer::SessionId session, int v,
                                  uint64_t digest) {
    PairRdd<uint64_t, double> src = source_;
    JobServer::SubmitOptions opts;
    opts.digest = digest;
    opts.label = "plan-" + std::to_string(v);
    opts.estimate_bytes = 64 << 10;
    return server_->Submit(
        session,
        [src, v]() -> Result<JobServer::Payload> {
          auto rows =
              std::make_shared<std::vector<Record>>(Plan(src, v).AsRdd().Collect());
          std::sort(rows->begin(), rows->end());
          JobServer::Payload p;
          p.bytes = rows->size() * sizeof(Record);
          p.data = std::shared_ptr<const void>(std::move(rows));
          return p;
        },
        std::move(opts));
  }

  /// A fresh JobServer with the hot plans already cached. The server keeps
  /// every finished job, and the context's RuntimeProfile keeps a profile
  /// for every lineage node each job built, so the measurement restarts
  /// the one and clears the other every epoch of kEpochJobsPerSession jobs
  /// per session: memory then does not grow with throughput.
  void StartServer() {
    server_.reset();
    ctx_->profile().Clear();
    JobServer::Options opts;
    opts.dispatcher_threads = 4;
    opts.result_cache_bytes = 8 << 20;
    server_ = std::make_unique<JobServer>(ctx_.get(), opts);
    sessions_.clear();
    for (int i = 0; i < kSessions; ++i) {
      sessions_.push_back(
          server_->OpenSession({"session-" + std::to_string(i), 1}));
    }
    for (int v = 0; v < kHot; ++v) {
      auto job = Submit(sessions_[0], v, HotDigest(v));
      if (job.ok()) (void)server_->Wait(*job);
    }
  }

  /// Closed loops on kSessions threads, each running `jobs_per_session`
  /// jobs or until `t_end`. Unrecorded when `out` is null (warm-up).
  void RunSessions(Harness* h, double t_end, int jobs_per_session,
                   std::atomic<uint64_t>* fresh, std::vector<JobSample>* out) {
    std::atomic<uint64_t> completed{0};
    last_boundary_s_ = NowSeconds();
    if (out != nullptr) h->tracer()->set_active(h->TracedRound(batch_count_));
    const uint64_t stream = seed_ * 131 + epochs_++ * kSessions;
    std::vector<std::vector<JobSample>> per_session(kSessions);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        Rng rng(stream + static_cast<uint64_t>(s));
        for (int n = 0; n < jobs_per_session; ++n) {
          if (out != nullptr && NowSeconds() >= t_end) break;
          const bool hot = rng.NextDouble() < kHotShare;
          int v;
          uint64_t digest;
          if (hot) {
            v = static_cast<int>(rng.NextBounded(kHot));
            digest = HotDigest(v);
          } else {
            const uint64_t f = fresh->fetch_add(1);
            v = kHot + static_cast<int>(f % (kVariants - kHot));
            digest = kFreshDigestBase + f;
          }
          const bool traced = out != nullptr && h->tracer()->active();
          Op op(h->tracer(), nullptr, "serve_job", traced);
          JobSample j;
          Result<std::shared_ptr<const std::vector<Record>>> rows =
              Status::Internal("not submitted");
          op.Start();
          {
            auto span = op.Span("JobServer::Submit+Collect", "engine.job_server");
            auto job = Submit(sessions_[s], v, digest);
            if (job.ok()) {
              rows = server_->Collect<Record>(*job);
              const JobServer::JobInfo info = server_->Info(*job);
              j.wait_us = info.wait_us;
              j.run_us = info.run_us;
            } else {
              rows = job.status();
            }
          }
          op.Stop();
          j.latency_ms = op.wall_s() * 1e3;
          j.traced = traced;
          j.hot = hot;
          j.ok = rows.ok() && *rows != nullptr && **rows == refs_[v];
          if (j.ok && !(*rows)->empty()) {
            j.ok = Op::Answer((*rows)->front().second) == refs_[v].front().second;
          }
          if (out == nullptr) continue;
          per_session[s].push_back(j);
          if ((completed.fetch_add(1) + 1) % kBatch == 0) EndBatch(h);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& v : per_session) {
      if (out != nullptr) out->insert(out->end(), v.begin(), v.end());
    }
    h->tracer()->set_active(false);
  }

  /// Closes one round of kBatch completions: records its duration and
  /// counter diff, then decides whether the next batch is traced.
  void EndBatch(Harness* h) {
    std::lock_guard<std::mutex> lock(batch_mu_);
    const double now = NowSeconds();
    const bool traced = h->tracer()->active();
    const Counters counters = ReadCounters(ctx_->metrics());
    batches_.push_back(
        {last_boundary_s_, now, traced, Diff(counters, batch_counters_)});
    h->RecordRound(now - last_boundary_s_, traced);
    last_boundary_s_ = now;
    batch_counters_ = counters;
    h->tracer()->set_active(h->TracedRound(++batch_count_));
  }

  /// Where each traced batch of the epoch went, from the stages that
  /// started inside it. Done once per epoch, after the sessions stop:
  /// copying the StageStats ring per batch would stall the jobs.
  void AttributeBatches(Harness* h, uint64_t epoch_seq, double offset_s) {
    const std::vector<StageStat> stages =
        StagesSince(ctx_->metrics(), epoch_seq, nullptr);
    if (h->traced_by_kind.empty()) h->traced_by_kind.resize(1);
    for (const Batch& b : batches_) {
      if (!b.traced) continue;
      std::vector<StageStat> inside;
      for (const StageStat& s : stages) {
        const double start = static_cast<double>(s.start_us) / 1e6 + offset_s;
        if (start >= b.start_s && start < b.end_s) inside.push_back(s);
      }
      const Attribution a = Attribute(b.end_s - b.start_s, inside, b.counters);
      h->traced_total.Add(a);
      h->traced_by_kind[0].Add(a);
    }
    batches_.clear();
  }

  uint64_t seed_ = 0;
  std::vector<Record> input_;
  std::vector<std::vector<Record>> refs_;

  std::unique_ptr<Context> ctx_;
  PairRdd<uint64_t, double> source_;
  std::unique_ptr<JobServer> server_;
  std::vector<JobServer::SessionId> sessions_;

  struct Batch {
    double start_s = 0, end_s = 0;
    bool traced = false;
    Counters counters{};
  };
  // Guarded by batch_mu_ while sessions run.
  std::mutex batch_mu_;
  double last_boundary_s_ = 0;
  Counters batch_counters_{};
  std::vector<Batch> batches_;  // this epoch's
  int batch_count_ = 0;
  uint64_t epochs_ = 0;

  std::vector<double> wait_ms_, run_ms_;
  Values traffic_;
};

}  // namespace

std::unique_ptr<Workload> MakeServingWorkload() {
  return std::make_unique<ServingWorkload>();
}

}  // namespace perfbench
