// Ablations of the design choices DESIGN.md calls out:
//   1. Local join (Sec. VI-A): block matmul with co-partitioned operands
//      vs the forced shuffle join — time and shuffle bytes.
//   2. Overlap (Sec. III-A): windowed aggregation over pre-built ghost
//      cells vs the shuffle-based regrid path.
//   3. MaskRdd laziness (Sec. III-B1): an operator chain evaluated
//      lazily once vs eagerly per operator.
//   4. DAG scheduler stage overlap: the two independent scatter shuffles
//      of a shuffle-join matmul materialized concurrently vs one at a
//      time. Also written to BENCH_scheduler.json for machines.
//   5. RuntimeProfile instrumentation overhead: PageRank and matmul with
//      profiling on vs off. The hooks must stay under a few percent or
//      always-on profiling is off the table. Written to
//      BENCH_observability.json for machines.
//   7. Multi-tenant serving: JobServer throughput and per-job latency
//      (p50/p99 of submit -> done) for 1 / 4 / 16 concurrent sessions,
//      with the lineage-digest result cache on vs off. Written to
//      BENCH_serving.json.
//   8. Distributed tracing overhead: a shuffle-heavy pipeline with span
//      recording + trace-header stamping on vs off, in LOCAL and
//      DISTRIBUTED (2-daemon) mode. Always-on tracing must stay under
//      3% or it ships disabled. Written to BENCH_tracing.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "common/random.h"
#include "engine/engine.h"
#include "engine/job_server.h"
#include "matrix/block_matrix.h"
#include "ml/pagerank.h"
#include "net/executor_fleet.h"
#include "workload/graph_gen.h"
#include "ops/aggregator.h"
#include "ops/operators.h"
#include "ops/overlap.h"
#include "workload/matrix_gen.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

using bench::PrintCell;
using bench::PrintEnd;
using bench::PrintHeader;
using bench::TimeSeconds;

void LocalJoinAblation() {
  Context ctx(4);
  const uint64_t n = 4096, block = 256;
  auto ma = GenerateUniformMatrix("a", n, n, 0.002, 31);
  auto mb = GenerateUniformMatrix("b", n, n, 0.002, 32);
  auto a = *BlockMatrix::FromEntries(&ctx, n, n, block, ma.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByColBlock, 8);
  auto b = *BlockMatrix::FromEntries(&ctx, n, n, block, mb.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, 8);
  a.Cache();
  b.Cache();
  a.NumNonZero();
  b.NumNonZero();

  PrintHeader("Ablation 1: matmul local join (Sec. VI-A)",
              {"variant", "time", "shuffles", "shuffled"});
  ctx.metrics().Reset();
  const double local_time = TimeSeconds([&] { a.Multiply(b)->NumNonZero(); });
  const uint64_t local_bytes = ctx.metrics().shuffle_bytes.load();
  const uint64_t local_shuffles = ctx.metrics().shuffles.load();
  PrintCell(std::string("local join"));
  PrintCell(local_time);
  PrintCell(std::to_string(local_shuffles));
  PrintCell(HumanBytes(local_bytes));
  PrintEnd();

  ctx.metrics().Reset();
  MatMulOptions forced;
  forced.force_shuffle_join = true;
  const double shuffle_time =
      TimeSeconds([&] { a.Multiply(b, forced)->NumNonZero(); });
  const uint64_t shuffle_bytes = ctx.metrics().shuffle_bytes.load();
  const uint64_t forced_shuffles = ctx.metrics().shuffles.load();
  PrintCell(std::string("shuffle join"));
  PrintCell(shuffle_time);
  PrintCell(std::to_string(forced_shuffles));
  PrintCell(HumanBytes(shuffle_bytes));
  PrintEnd();
}

void OverlapAblation() {
  Context ctx(4);
  ChlOptions options;
  options.lon = 720;
  options.lat = 360;
  options.time = 2;
  options.chunk_lon = 90;
  options.chunk_lat = 90;
  auto data = GenerateChl(options);
  auto attr = *ArrayRdd::FromCells(&ctx, data.meta, data.cells[0]);
  attr.Cache();
  attr.CountValid();
  auto arr = *SpangleArray::FromAttributes({{"chl", attr}});

  PrintHeader("Ablation 2: overlap for regrid (Sec. III-A)",
              {"variant", "time", "shuffled"});
  // Build cost is one-time; the paper amortizes it over many queries.
  auto overlap = OverlapArrayRdd::Build(attr, 2);
  overlap.Cache();
  overlap.expanded_chunks().Count();
  ctx.metrics().Reset();
  const double local_time = TimeSeconds([&] {
    (void)overlap.RegridAggregateLocal(AvgAgg(), {3, 3, 1})->CountValid();
  });
  const uint64_t local_bytes = ctx.metrics().shuffle_bytes.load();
  PrintCell(std::string("with overlap"));
  PrintCell(local_time);
  PrintCell(HumanBytes(local_bytes));
  PrintEnd();

  ctx.metrics().Reset();
  const double shuffle_time = TimeSeconds([&] {
    (void)RegridAggregate(arr, "chl", AvgAgg(), {3, 3, 1})->CountValid();
  });
  const uint64_t shuffle_bytes = ctx.metrics().shuffle_bytes.load();
  PrintCell(std::string("without"));
  PrintCell(shuffle_time);
  PrintCell(HumanBytes(shuffle_bytes));
  PrintEnd();
}

void MaskRddAblation() {
  Context ctx(4);
  SkyOptions options;
  options.images = 4;
  options.width = 384;
  options.height = 384;
  options.bands = 5;
  options.chunk = 128;
  options.source_density = 0.004;
  auto data = GenerateSky(options);

  PrintHeader("Ablation 3: MaskRdd lazy evaluation (Sec. III-B1)",
              {"variant", "time"});
  for (bool use_mask : {true, false}) {
    auto arr = *data.ToSpangle(&ctx, ModePolicy::Auto(), use_mask);
    arr.Cache();
    arr.CountValid();
    const double secs = TimeSeconds([&] {
      auto sub = *Subarray(arr, {0, 16, 16}, {3, 350, 350});
      auto f1 = *Filter(sub, "u", [](double v) { return v > 0.3; });
      auto f2 = *Filter(f1, "g", [](double v) { return v > 0.3; });
      (void)*Aggregate(f2, "r", AvgAgg());
    });
    PrintCell(std::string(use_mask ? "with MaskRdd" : "eager"));
    PrintCell(secs);
    PrintEnd();
  }
}

void SchedulerAblation() {
  // Per-task overhead models the real cluster's scheduling latency; with
  // it, wall time is dominated by stage count, which is exactly what
  // concurrent materialization of independent stages reduces.
  const int kWorkers = 4;
  const int kPartitions = 2;
  Context ctx(kWorkers, kPartitions, /*task_overhead_us=*/20000);
  const uint64_t n = 512, block = 128;
  auto ma = GenerateUniformMatrix("a", n, n, 0.01, 41);
  auto mb = GenerateUniformMatrix("b", n, n, 0.01, 42);
  auto a = *BlockMatrix::FromEntries(&ctx, n, n, block, ma.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kHashChunk, kPartitions);
  auto b = *BlockMatrix::FromEntries(&ctx, n, n, block, mb.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kHashChunk, kPartitions);
  a.Cache();
  b.Cache();
  a.NumNonZero();
  b.NumNonZero();

  MatMulOptions forced;
  forced.force_shuffle_join = true;
  // Each run plans fresh shuffle nodes (Multiply builds new lineage), so
  // the two variants materialize identical work.
  auto run = [&](bool serial) {
    ctx.set_serial_shuffle_materialization(serial);
    auto c = *a.Multiply(b, forced);
    auto* node = c.array().chunks().AsRdd().node();
    return TimeSeconds([&] { ctx.EnsureShuffleDependencies(node); });
  };

  PrintHeader("Ablation 4: scheduler stage overlap",
              {"variant", "time", "peak overlap"});
  ctx.metrics().Reset();
  const double serial_time = run(true);
  const uint64_t serial_peak = ctx.metrics().peak_concurrent_shuffles.load();
  PrintCell(std::string("serial stages"));
  PrintCell(serial_time);
  PrintCell(std::to_string(serial_peak));
  PrintEnd();

  ctx.metrics().Reset();
  const double concurrent_time = run(false);
  const uint64_t concurrent_peak =
      ctx.metrics().peak_concurrent_shuffles.load();
  PrintCell(std::string("concurrent stages"));
  PrintCell(concurrent_time);
  PrintCell(std::to_string(concurrent_peak));
  PrintEnd();

  const double speedup =
      concurrent_time > 0 ? serial_time / concurrent_time : 0.0;
  std::printf("scatter-phase speedup: %.2fx\n", speedup);
  FILE* f = std::fopen("BENCH_scheduler.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"scheduler_stage_overlap\",\"workers\":%d,"
                 "\"partitions\":%d,\"serial_seconds\":%.6f,"
                 "\"concurrent_seconds\":%.6f,\"speedup\":%.3f,"
                 "\"peak_concurrent_shuffles\":%llu}\n",
                 kWorkers, kPartitions, serial_time, concurrent_time, speedup,
                 static_cast<unsigned long long>(concurrent_peak));
    std::fclose(f);
  }
}

void ObservabilityAblation() {
  Context ctx(4);

  // Workload A: PageRank on an R-MAT graph (many small per-tile tasks —
  // the per-partition hook cost shows up here if anywhere).
  RmatOptions graph;
  graph.scale = 13;
  graph.edges_per_vertex = 8;
  const auto edges = GenerateRmat(graph);
  const uint64_t n = uint64_t{1} << graph.scale;
  PageRankOptions pr;
  pr.iterations = 15;
  pr.block = 512;

  // Workload B: sparse block matmul (chunk-build heavy, so the
  // RecordChunkBuilt hook fires per output tile).
  const uint64_t mn = 2048, block = 256;
  auto ma = GenerateUniformMatrix("a", mn, mn, 0.004, 51);
  auto mb = GenerateUniformMatrix("b", mn, mn, 0.004, 52);
  auto a = *BlockMatrix::FromEntries(&ctx, mn, mn, block, ma.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByColBlock, 8);
  auto b = *BlockMatrix::FromEntries(&ctx, mn, mn, block, mb.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, 8);
  a.Cache();
  b.Cache();
  a.NumNonZero();
  b.NumNonZero();

  // Interleave off/on reps and take the min of each: allocator and cache
  // state drift across runs, so measuring all-off then all-on biases the
  // later configuration. Alternating exposes both to the same drift.
  constexpr int kReps = 7;
  auto pagerank_once = [&] { (void)*PageRank(&ctx, n, edges, pr); };
  auto matmul_once = [&] { a.Multiply(b)->NumNonZero(); };
  auto measure = [&](const std::function<void()>& fn, double* off,
                     double* on) {
    ctx.set_profiling_enabled(false);
    fn();  // warmup
    ctx.set_profiling_enabled(true);
    fn();  // warmup
    *off = -1.0;
    *on = -1.0;
    for (int r = 0; r < kReps; ++r) {
      ctx.set_profiling_enabled(false);
      const double t_off = TimeSeconds(fn);
      ctx.set_profiling_enabled(true);
      const double t_on = TimeSeconds(fn);
      if (*off < 0.0 || t_off < *off) *off = t_off;
      if (*on < 0.0 || t_on < *on) *on = t_on;
    }
  };

  PrintHeader("Ablation 5: RuntimeProfile instrumentation overhead",
              {"workload", "profile off", "profile on", "overhead"});
  double results[2][2];  // [workload][off, on]
  const char* names[2] = {"pagerank", "matmul"};
  const std::function<void()> work[2] = {pagerank_once, matmul_once};
  for (int w = 0; w < 2; ++w) {
    measure(work[w], &results[w][0], &results[w][1]);
    const double overhead =
        results[w][0] > 0
            ? (results[w][1] - results[w][0]) / results[w][0] * 100.0
            : 0.0;
    PrintCell(std::string(names[w]));
    PrintCell(results[w][0]);
    PrintCell(results[w][1]);
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.2f%%", overhead);
    PrintCell(std::string(pct));
    PrintEnd();
  }

  FILE* f = std::fopen("BENCH_observability.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\"bench\":\"runtime_profile_overhead\",\"reps\":%d,"
        "\"pagerank_off_seconds\":%.6f,\"pagerank_on_seconds\":%.6f,"
        "\"pagerank_overhead_pct\":%.3f,"
        "\"matmul_off_seconds\":%.6f,\"matmul_on_seconds\":%.6f,"
        "\"matmul_overhead_pct\":%.3f}\n",
        kReps, results[0][0], results[0][1],
        (results[0][1] - results[0][0]) / results[0][0] * 100.0,
        results[1][0], results[1][1],
        (results[1][1] - results[1][0]) / results[1][0] * 100.0);
    std::fclose(f);
  }
}

void TracingAblation() {
  // Shuffle-heavy wordcount: every rep issues a full put/fetch data-plane
  // round, so the per-RPC trace stamp + daemon span recording cost is on
  // the hot path. In LOCAL mode the only cost left is binding job/stage
  // trace contexts, which bounds the fixed floor.
  // Big enough that a run takes ~10ms: the tracing cost is a handful of
  // atomics per task plus one stamp per RPC, so on a sub-millisecond
  // workload scheduler jitter swamps the ratio being measured.
  constexpr int kRecords = 600000;
  constexpr int kBuckets = 64;
  constexpr int kReps = 9;

  struct Mode {
    const char* name;
    bool distributed;
  };
  static const Mode kModes[] = {{"local", false}, {"distributed", true}};

  PrintHeader("Ablation 8: distributed tracing overhead",
              {"mode", "tracing off", "tracing on", "overhead", "spans"});

  struct Row {
    const char* mode;
    double off_s, on_s;
    uint64_t spans;
  };
  std::vector<Row> rows;
  for (const Mode& mode : kModes) {
    DeploymentOptions deploy;
    if (mode.distributed) {
      deploy.mode = DeploymentMode::kDistributed;
      deploy.distributed.num_executors = 2;
    }
    Context ctx(4, 8, 0, {}, deploy);

    auto run_once = [&] {
      std::vector<int> data(kRecords);
      for (int i = 0; i < kRecords; ++i) data[i] = i;
      auto counts = PairRdd<int, int>(ctx.Parallelize(std::move(data))
                                          .Map([](const int& v) {
                                            return std::pair<int, int>(
                                                v % kBuckets, 1);
                                          }))
                        .ReduceByKey(
                            [](const int& a, const int& b) { return a + b; });
      if (counts.Collect().size() != static_cast<size_t>(kBuckets)) {
        std::abort();
      }
    };

    // Same interleaved-rep discipline as Ablation 5: alternating on/off
    // exposes both configurations to identical allocator/cache drift.
    ctx.set_tracing_enabled(false);
    run_once();  // warmup
    ctx.set_tracing_enabled(true);
    run_once();  // warmup
    double off = -1.0, on = -1.0;
    for (int r = 0; r < kReps; ++r) {
      ctx.set_tracing_enabled(false);
      const double t_off = TimeSeconds(run_once);
      ctx.set_tracing_enabled(true);
      const double t_on = TimeSeconds(run_once);
      if (off < 0.0 || t_off < off) off = t_off;
      if (on < 0.0 || t_on < on) on = t_on;
    }

    uint64_t spans = ctx.trace_spans().Snapshot().size();
    if (ctx.fleet() != nullptr) {
      ctx.fleet()->ScrapeAll();
      spans += ctx.fleet()->CollectedSpans().size();
    }
    rows.push_back({mode.name, off, on, spans});

    const double overhead = off > 0 ? (on - off) / off * 100.0 : 0.0;
    PrintCell(std::string(mode.name));
    PrintCell(off);
    PrintCell(on);
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.2f%%", overhead);
    PrintCell(std::string(pct));
    PrintCell(std::to_string(spans));
    PrintEnd();
  }

  FILE* f = std::fopen("BENCH_tracing.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"tracing_overhead\",\"reps\":%d,"
                 "\"gate_overhead_pct\":3.0,\"rows\":[",
                 kReps);
    for (size_t i = 0; i < rows.size(); ++i) {
      const double overhead =
          rows[i].off_s > 0
              ? (rows[i].on_s - rows[i].off_s) / rows[i].off_s * 100.0
              : 0.0;
      std::fprintf(f,
                   "%s{\"mode\":\"%s\",\"off_seconds\":%.6f,"
                   "\"on_seconds\":%.6f,\"overhead_pct\":%.3f,"
                   "\"spans_recorded\":%llu,\"pass\":%s}",
                   i > 0 ? "," : "", rows[i].mode, rows[i].off_s, rows[i].on_s,
                   overhead, static_cast<unsigned long long>(rows[i].spans),
                   overhead < 3.0 ? "true" : "false");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }
}

void ServingAblation() {
  // Every tenant draws its jobs from a shared pool of digest-declared
  // plans, so with the cache on repeats (within and across sessions) are
  // served without re-execution; with it off every job runs the engine.
  constexpr int kJobsEach = 12;
  constexpr int kPlanPool = 6;
  const int session_counts[3] = {1, 4, 16};

  auto build_plan = [](Context* ctx, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint64_t> data(8000);
    for (auto& v : data) v = rng.NextBounded(uint64_t{1} << 20);
    auto rdd = ctx->Parallelize(std::move(data), 4).WithDigestSeed(seed);
    return ToPair<uint64_t, uint64_t>(rdd.Map([](const uint64_t& x) {
             return std::make_pair(x % 64, x);
           }))
        // Commutative + associative so every run is bit-identical.
        .ReduceByKey([](const uint64_t& a, const uint64_t& b) { return a + b; })
        .AsRdd()
        .Map([](const std::pair<uint64_t, uint64_t>& kv) {
          return kv.first * 1000003u + kv.second;
        });
  };

  PrintHeader("Ablation 7: multi-tenant serving (JobServer)",
              {"sessions", "cache", "jobs/s", "p50 ms", "p99 ms", "hits"});
  struct Row {
    int sessions;
    bool cache_on;
    double jobs_per_s, p50_ms, p99_ms;
    uint64_t hits;
  };
  std::vector<Row> rows;
  for (const int n_sessions : session_counts) {
    for (const bool cache_on : {false, true}) {
      Context ctx(4);
      JobServer::Options opts;
      opts.dispatcher_threads = 4;
      opts.result_cache_bytes = cache_on ? (64u << 20) : 0;
      JobServer server(&ctx, opts);
      std::vector<JobServer::SessionId> sessions(n_sessions);
      for (int s = 0; s < n_sessions; ++s) sessions[s] = server.OpenSession();

      std::vector<std::vector<JobServer::JobId>> ids(n_sessions);
      const double secs = TimeSeconds([&] {
        std::vector<std::thread> submitters;
        submitters.reserve(n_sessions);
        for (int s = 0; s < n_sessions; ++s) {
          submitters.emplace_back([&, s] {
            for (int k = 0; k < kJobsEach; ++k) {
              const uint64_t seed = 0xab1a7e + (s + k) % kPlanPool;
              auto job =
                  server.SubmitCollect(sessions[s], build_plan(&ctx, seed));
              if (job.ok()) ids[s].push_back(*job);
            }
          });
        }
        for (auto& t : submitters) t.join();
        server.WaitAll();
      });

      std::vector<double> latency_ms;
      for (const auto& per_session : ids) {
        for (const JobServer::JobId id : per_session) {
          const auto info = server.Info(id);
          latency_ms.push_back(
              static_cast<double>(info.wait_us + info.run_us) / 1000.0);
        }
      }
      std::sort(latency_ms.begin(), latency_ms.end());
      auto pct = [&](double p) {
        if (latency_ms.empty()) return 0.0;
        const size_t i = static_cast<size_t>(
            p * static_cast<double>(latency_ms.size() - 1) + 0.5);
        return latency_ms[i];
      };
      Row row;
      row.sessions = n_sessions;
      row.cache_on = cache_on;
      row.jobs_per_s =
          secs > 0 ? static_cast<double>(latency_ms.size()) / secs : 0.0;
      row.p50_ms = pct(0.50);
      row.p99_ms = pct(0.99);
      row.hits = ctx.metrics().result_cache_hits.load();
      rows.push_back(row);

      PrintCell(std::to_string(n_sessions));
      PrintCell(std::string(cache_on ? "on" : "off"));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", row.jobs_per_s);
      PrintCell(std::string(buf));
      std::snprintf(buf, sizeof(buf), "%.2f", row.p50_ms);
      PrintCell(std::string(buf));
      std::snprintf(buf, sizeof(buf), "%.2f", row.p99_ms);
      PrintCell(std::string(buf));
      PrintCell(std::to_string(row.hits));
      PrintEnd();
    }
  }

  FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"multi_tenant_serving\",\"jobs_per_session\":%d,"
                 "\"plan_pool\":%d,\"dispatchers\":4,\"rows\":[",
                 kJobsEach, kPlanPool);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "%s{\"sessions\":%d,\"cache\":%s,\"jobs_per_second\":%.2f,"
                   "\"latency_p50_ms\":%.3f,\"latency_p99_ms\":%.3f,"
                   "\"result_cache_hits\":%llu}",
                   i > 0 ? "," : "", rows[i].sessions,
                   rows[i].cache_on ? "true" : "false", rows[i].jobs_per_s,
                   rows[i].p50_ms, rows[i].p99_ms,
                   static_cast<unsigned long long>(rows[i].hits));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }
}

}  // namespace
}  // namespace spangle

int main() {
  std::printf("Design-choice ablations\n");
  spangle::LocalJoinAblation();
  spangle::OverlapAblation();
  spangle::MaskRddAblation();
  spangle::SchedulerAblation();
  spangle::ObservabilityAblation();
  spangle::ServingAblation();
  spangle::TracingAblation();
  return 0;
}
