#include "engine/scheduler.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/mutex.h"
#include "engine/engine.h"

namespace spangle {

namespace {

/// Holds the concurrent_shuffles gauge up while a lone pending stage
/// materializes on the submitting thread (exception-safe decrement).
struct GaugeGuard {
  explicit GaugeGuard(std::atomic<uint64_t>& gauge) : gauge_(gauge) {
    gauge_.fetch_add(1, std::memory_order_relaxed);
  }
  ~GaugeGuard() { gauge_.fetch_sub(1, std::memory_order_relaxed); }
  std::atomic<uint64_t>& gauge_;
};

}  // namespace

namespace internal {

namespace {
thread_local uint64_t tl_job_id = 0;
}  // namespace

uint64_t CurrentJobId() { return tl_job_id; }
void SetThreadJobId(uint64_t id) { tl_job_id = id; }

ScopedJobId::ScopedJobId(uint64_t id) : prev_(tl_job_id) { tl_job_id = id; }
ScopedJobId::~ScopedJobId() { tl_job_id = prev_; }

}  // namespace internal

int PhysicalPlan::NumPendingShuffleStages() const {
  int n = 0;
  for (const auto& s : stages) {
    if (s.is_shuffle && !s.materialized) ++n;
  }
  return n;
}

int PhysicalPlan::NumMaterializedShuffleStages() const {
  int n = 0;
  for (const auto& s : stages) {
    if (s.is_shuffle && s.materialized) ++n;
  }
  return n;
}

int PhysicalPlan::MaxOverlapWidth() const {
  // Depth = longest chain of pending shuffle stages below this one.
  // Stages are in topological order, so one forward pass suffices; the
  // answer is the widest depth level among pending shuffle stages.
  std::vector<int> depth(stages.size(), 0);
  std::unordered_map<int, int> width_at_depth;
  int best = 0;
  for (const auto& s : stages) {
    int d = 0;
    for (int dep : s.deps) {
      const auto& ds = stages[dep];
      const int below =
          depth[dep] + ((ds.is_shuffle && !ds.materialized) ? 1 : 0);
      d = std::max(d, below);
    }
    depth[s.id] = d;
    if (s.is_shuffle && !s.materialized) {
      best = std::max(best, ++width_at_depth[d]);
    }
  }
  return best;
}

std::string PhysicalPlan::ToString() const {
  std::ostringstream os;
  os << "== Physical plan";
  if (!action.empty()) os << ": " << action;
  os << " ==\n";
  for (const auto& s : stages) {
    os << "Stage " << s.id << " [";
    if (s.is_shuffle) {
      os << (s.materialized ? "shuffle, materialized" : "shuffle");
    } else {
      os << "result";
    }
    os << "] " << s.name << " tasks=" << s.num_tasks << " deps=";
    if (s.deps.empty()) {
      os << "-";
    } else {
      for (size_t i = 0; i < s.deps.size(); ++i) {
        if (i > 0) os << ",";
        os << s.deps[i];
      }
    }
    os << "\n";
  }
  os << "pending shuffle stages: " << NumPendingShuffleStages() << " ("
     << NumMaterializedShuffleStages()
     << " already materialized), max overlap width: " << MaxOverlapWidth()
     << "\n";
  return os.str();
}

PhysicalPlan Scheduler::BuildPlan(
    const std::vector<internal::NodeBase*>& roots,
    const std::string& action) const {
  PhysicalPlan plan;
  plan.action = action;
  // Memoized DFS: a node's "exposed" stages are the nearest shuffle
  // stages at or above it. Dedup by node id makes diamond lineages (the
  // same shuffle reachable through two paths) plan the shuffle once.
  std::unordered_map<uint64_t, std::vector<int>> memo;
  auto merge = [](std::vector<int>* into, const std::vector<int>& from) {
    for (int id : from) {
      if (std::find(into->begin(), into->end(), id) == into->end()) {
        into->push_back(id);
      }
    }
  };
  std::function<std::vector<int>(internal::NodeBase*)> visit =
      [&](internal::NodeBase* n) -> std::vector<int> {
    if (n == nullptr) return {};
    auto it = memo.find(n->id());
    if (it != memo.end()) return it->second;
    std::vector<int> exposed;
    if (n->IsShuffle()) {
      PlanStage st;
      st.materialized = n->IsMaterialized();
      if (!st.materialized) {
        // A materialized shuffle cuts the walk: its output is available,
        // so nothing above it needs to be planned (Spark's stage skip).
        for (internal::NodeBase* p : n->Parents()) merge(&st.deps, visit(p));
      }
      st.id = static_cast<int>(plan.stages.size());
      st.node_id = n->id();
      st.name = n->name() + "#" + std::to_string(n->id());
      st.is_shuffle = true;
      st.num_tasks = n->num_partitions();
      st.node = n;
      plan.stages.push_back(std::move(st));
      exposed = {plan.stages.back().id};
    } else {
      for (internal::NodeBase* p : n->Parents()) merge(&exposed, visit(p));
    }
    memo.emplace(n->id(), exposed);
    return exposed;
  };
  std::vector<int> root_deps;
  int result_tasks = 0;
  for (internal::NodeBase* r : roots) {
    merge(&root_deps, visit(r));
    if (r != nullptr) result_tasks += r->num_partitions();
  }
  if (!action.empty()) {
    PlanStage st;
    st.id = static_cast<int>(plan.stages.size());
    st.node_id = roots.size() == 1 && roots[0] != nullptr ? roots[0]->id() : 0;
    st.name = action;
    st.num_tasks = result_tasks;
    st.deps = std::move(root_deps);
    plan.stages.push_back(std::move(st));
  }
  return plan;
}

void Scheduler::MaterializeShuffles(const PhysicalPlan& plan) const {
  std::vector<int> pending;
  for (const auto& s : plan.stages) {
    if (s.is_shuffle && !s.materialized) pending.push_back(s.id);
  }
  if (pending.empty()) return;
  EngineMetrics& metrics = ctx_->metrics();
  if (pending.size() == 1) {
    metrics.RaisePeakConcurrentShuffles(1);
    GaugeGuard gauge(metrics.concurrent_shuffles);
    plan.stages[pending[0]].node->Materialize();
    return;
  }
  // One driver thread per pending stage: each waits for its dependencies,
  // then materializes. Stages with no ordering between them overlap; the
  // executor pool multiplexes their task batches over the shared workers.
  //
  // Failure: the first stage whose materialization throws records its
  // exception and flips `failed`, which releases every thread still
  // waiting on dependencies (they return without materializing). After
  // the join the error is rethrown on the submitting thread, where
  // RunJob's recovery loop can re-plan.
  const uint64_t job = internal::CurrentJobId();
  // Per-stage driver threads inherit the submitter's identity: the job id
  // (tenant attribution in StageStats) and the trace context (so the
  // stages they run stamp the same trace_id onto fleet RPCs).
  const TraceContext submitter_trace = trace::Current();
  // Rank kScheduler: held only around the done/running/failed
  // bookkeeping; Materialize() itself runs with the lock released.
  Mutex mu{LockRank::kScheduler, "Scheduler::materialize_mu"};
  CondVar cv;
  std::vector<char> done(plan.stages.size(), 0);
  for (const auto& s : plan.stages) {
    if (s.is_shuffle && s.materialized) done[s.id] = 1;
  }
  int running = 0;
  bool failed = false;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(pending.size());
  for (int id : pending) {
    threads.emplace_back([&, id] {
      internal::SetThreadJobId(job);
      trace::SetThreadContext(submitter_trace);
      const PlanStage& stage = plan.stages[id];
      {
        MutexLock lock(&mu);
        cv.Wait(mu, [&] {
          if (failed) return true;
          for (int dep : stage.deps) {
            if (!done[dep]) return false;
          }
          return true;
        });
        if (failed) return;
        ++running;
        metrics.concurrent_shuffles.fetch_add(1, std::memory_order_relaxed);
        metrics.RaisePeakConcurrentShuffles(static_cast<uint64_t>(running));
      }
      try {
        stage.node->Materialize();
        MutexLock lock(&mu);
        --running;
        metrics.concurrent_shuffles.fetch_sub(1, std::memory_order_relaxed);
        done[id] = 1;
      } catch (...) {
        MutexLock lock(&mu);
        --running;
        metrics.concurrent_shuffles.fetch_sub(1, std::memory_order_relaxed);
        if (!failed) {
          failed = true;
          first_error = std::current_exception();
        }
      }
      cv.NotifyAll();
    });
  }
  for (auto& t : threads) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace spangle
