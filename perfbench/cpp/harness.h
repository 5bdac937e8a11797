#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark harness: argument parsing, engine-counter snapshots,
// per-operation time attribution, benchmark-side spans, and the closed
// loop that drives a workload for a fixed number of seconds.
//
// Every number is taken from outside the engine: the harness times the
// calls a workload makes into Spangle's public API and diffs the public
// EngineMetrics counters and StageStats around them. Nothing in src/
// knows the benchmark exists.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using spangle::Context;
using spangle::EngineMetrics;
using spangle::StageStat;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies every input size; the self-test runs at a tiny scale.
  double scale = 1.0;
  // Run records and span files go here.
  std::string out_dir = ".";
  // Perturbs the first checked answer, so the self-test can show that
  // the correctness checks fire.
  bool corrupt = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--scale X]
/// [--out-dir D] [--corrupt]`. Returns an error message, empty on success.
std::string ParseArgs(int argc, char** argv, Args* args);

double NowSeconds();  // steady clock, seconds since process start

// ---- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Seconds per call of `fn`, over repetitions filling about 0.2 s. For
/// the per-layer probes that time one layer function on a workload's data.
template <typename Fn>
double TimeRepeated(Fn fn) {
  int reps = 0;
  const double t0 = NowSeconds();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = NowSeconds() - t0;
  } while (elapsed < 0.2);
  return elapsed / reps;
}

/// Keeps a probe's result observable so the timed work is not elided.
void KeepAlive(uint64_t v);

// ---- engine counters --------------------------------------------------------

/// The EngineMetrics counters the benchmark diffs around operations.
enum Counter {
  kStages,
  kTasks,
  kTaskUs,
  kShuffleBytes,
  kShuffleRecords,
  kCacheHits,
  kCacheMisses,
  kEvictions,
  kSpilledBytes,
  kDedupHits,
  kCodecRaw,
  kCodecEncoded,
  kCodecEncodeUs,
  kRpcBytes,
  kRpcRoundtrips,
  kRemoteFetchUs,
  kModeTransitions,
  kAdmissionQueued,
  kResultCacheHits,
  kResultCacheMisses,
  kNumCounters,
};
using Counters = std::array<uint64_t, kNumCounters>;

Counters ReadCounters(const EngineMetrics& m);
Counters Diff(const Counters& after, const Counters& before);
void Accumulate(Counters* into, const Counters& d);

/// Where one operation's (or one batch's) wall time went, from the
/// StageStats it produced:
///   stage_s        union of the stage walls (some executor work running)
///   driver_gap_s   gaps between the first stage start and the last stage
///                  end (serial driver work between stages, such as the
///                  shuffle encode loop)
///   unattributed_s wall - stage_s - driver_gap_s (planning, result
///                  handling, benchmark code), so the three parts sum to
///                  the wall time by construction.
struct Attribution {
  double wall_s = 0;
  double stage_s = 0;
  double driver_gap_s = 0;
  double unattributed_s = 0;
  double map_s = 0;     // sum of */map stage walls
  double reduce_s = 0;  // sum of */reduce stage walls
  double skew_sum = 0;  // sum of skew_ratio over multi-task stages
  int skew_n = 0;
  Counters counters{};

  void Add(const Attribution& o);
};

/// Attributes `wall_s` over `stages` (the stages recorded inside it).
Attribution Attribute(double wall_s, const std::vector<StageStat>& stages,
                      const Counters& counters);

/// Stage records with seq > `after_seq`, plus the highest seq seen.
std::vector<StageStat> StagesSince(const EngineMetrics& m, uint64_t after_seq,
                                   uint64_t* max_seq);

// ---- spans ----------------------------------------------------------------

/// Benchmark-side spans: one per operation and one per call the benchmark
/// makes into a layer, plus the engine stages each traced operation ran
/// (from StageStats). Kept in memory, written as Chrome trace JSON at the
/// end. Recording is on only while `active`.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return id_; }  // 0 when not recording

   private:
    Tracer* tracer_;  // null when not recording
    size_t index_ = 0;
    uint64_t id_ = 0;
  };

  void set_active(bool active) { active_.store(active); }
  bool active() const { return active_.load(); }

  /// Adds `stages` as children of span `parent`; `epoch_offset_s` maps
  /// the context clock onto the benchmark clock.
  void AddStages(const std::vector<StageStat>& stages, double epoch_offset_s,
                 uint64_t parent);

  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    std::string layer;
    double start_s = 0;
    double end_s = 0;
    uint64_t thread = 0;
  };

  std::atomic<bool> active_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---- operations -----------------------------------------------------------

/// One timed operation. The workload calls Start() right before and Stop()
/// right after the work whose wall time counts, and checks answers after
/// Stop(). When traced, the counter and StageStats snapshots happen
/// outside the timed interval.
class Op {
 public:
  Op(Tracer* tracer, Context* ctx, const std::string& kind, bool traced);
  ~Op();
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  void Start();
  void Stop();

  /// Span around one call into a layer (no-op when untraced).
  Tracer::Scope Span(const char* name, const char* layer) {
    return Tracer::Scope(traced_ ? tracer_ : nullptr, name, layer);
  }

  /// Passes an answer through unchanged, except that the first answer of
  /// a --corrupt run is perturbed.
  static double Answer(double v);
  static void set_corrupt(bool corrupt);

  bool traced() const { return traced_; }
  double wall_s() const { return wall_s_; }
  const Attribution& attribution() const { return attribution_; }

 private:
  Tracer* const tracer_;
  Context* const ctx_;
  const std::string kind_;
  const bool traced_;
  Counters before_{};
  uint64_t seq_before_ = 0;
  double epoch_offset_s_ = 0;
  double start_s_ = 0;
  double wall_s_ = 0;
  std::unique_ptr<Tracer::Scope> span_;
  Attribution attribution_;
};

// ---- workloads ------------------------------------------------------------

/// Per-layer numbers a workload measures itself (micro-probes over its own
/// data, ML iteration times, serving queue stats). Unset keys report 0:
/// the layer is idle in, or not probed by, that workload.
using Values = std::vector<std::pair<std::string, double>>;

class Harness;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operation kinds, run once each per round, in this order. Each kind
  /// is one of the workload's named timings (e.g. "scan_query").
  virtual std::vector<std::string> OpKinds() const = 0;

  /// Builds the synthetic inputs from the seed. Untimed.
  virtual void Generate(uint64_t seed, double scale) = 0;

  /// Context creation, ingest into Spangle structures and cache warm-up:
  /// the timed set-up. Replaces whatever an earlier Setup() built.
  virtual void Setup(Tracer* tracer) = 0;

  /// Reference answers, computed once after the first Setup(). Untimed.
  virtual void ComputeReferences(const std::string& tmp_dir) = 0;

  virtual Context* context() = 0;

  /// Runs one operation of `kind`; true when every answer matched.
  virtual bool RunOp(int kind, Op* op) = 0;

  /// Asked after every measured round; true makes the harness run (and
  /// time) a fresh Setup(), for a workload whose state grows per round.
  virtual bool NeedsFreshSetup(int round) {
    (void)round;
    return false;
  }

  /// Drives the measurement window. The default is a single closed-loop
  /// client running rounds of OpKinds(); serving overrides it.
  virtual void Measure(Harness* h);

  /// Input properties the workload was chosen for (after the run).
  virtual Values Traffic() = 0;

  /// Per-layer probes and measurements, for the traced run only.
  virtual Values LayerValues() { return {}; }
};

std::unique_ptr<Workload> MakeRasterWorkload();
std::unique_ptr<Workload> MakeMlWorkload();
std::unique_ptr<Workload> MakeShuffleWorkload();
std::unique_ptr<Workload> MakeServingWorkload();

/// One executed operation.
struct OpSample {
  int kind = 0;
  int round = 0;
  double wall_s = 0;
  bool ok = true;
  bool traced = false;
};

/// State shared by the measurement loop and the report.
class Harness {
 public:
  Harness(const Args& args, Workload* w) : args_(args), w_(w) {}

  const Args& args() const { return args_; }
  Tracer* tracer() { return &tracer_; }

  /// Times one Setup() and records it as a set-up sample.
  void TimedSetup();

  /// Records one operation; traced samples also feed the attribution.
  void Record(const OpSample& s, const Attribution* a);

  /// Records one measured round's wall time (and whether it was traced).
  void RecordRound(double wall_s, bool traced);

  /// Whether round `r` runs traced (odd rounds of a --trace 1 run).
  bool TracedRound(int r) const { return args_.trace && (r % 2 == 1); }

  /// Full run: generate, set up, reference, warm up, measure, report.
  int Run();

  // Read by workloads that override Measure().
  std::vector<OpSample> samples;
  std::vector<double> setup_s;
  std::vector<double> round_s[2];  // [traced]
  Attribution traced_total;
  std::vector<Attribution> traced_by_kind;
  int traced_rounds = 0;
  // When set, op_median_ms is the median of these latencies instead of
  // the geometric mean of the per-kind medians (serving's jobs).
  std::vector<double> latency_ms_override;
  // Workload-specific named timings (serving's rate and percentiles).
  Values named;

 private:
  /// Writes the run record to `path` and prints the result line.
  void Report(const std::string& path, double peak_rss_mb,
              const Values& traffic, const Values& layer_values);

  Args args_;
  Workload* w_;
  Tracer tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
