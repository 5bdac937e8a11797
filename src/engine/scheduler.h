#ifndef SPANGLE_ENGINE_SCHEDULER_H_
#define SPANGLE_ENGINE_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spangle {

class Context;

namespace internal {

class NodeBase;

/// Job id of the scheduler job the current thread is working for (0 when
/// outside any job). Stamped onto every StageStat so trace export can
/// group stages by job; scheduler threads inherit it from the submitting
/// thread.
uint64_t CurrentJobId();
void SetThreadJobId(uint64_t id);

/// RAII job-id binding for the current thread.
class ScopedJobId {
 public:
  explicit ScopedJobId(uint64_t id);
  ~ScopedJobId();
  ScopedJobId(const ScopedJobId&) = delete;
  ScopedJobId& operator=(const ScopedJobId&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace internal

/// One stage of a physical plan. Shuffle stages materialize one shuffle
/// node (map side + reduce side); the optional result stage at the end
/// runs the action's own tasks. A shuffle stage whose output is already
/// available (cached from an earlier job) appears with materialized=true
/// and is skipped at run time — Spark's completed-stage skipping.
struct PlanStage {
  int id = 0;
  uint64_t node_id = 0;
  std::string name;          // "<node name>#<node id>" or the action name
  bool is_shuffle = false;
  bool materialized = false;  // shuffle output already available: skipped
  int num_tasks = 0;          // output partitions (reduce side / action)
  std::vector<int> deps;      // stage ids that must finish first
  internal::NodeBase* node = nullptr;  // owning job keeps this alive
};

/// A staged physical plan for one job: stages in topological order, cut
/// at shuffle boundaries and deduplicated by lineage node id, with the
/// result stage (when an action name was given) last.
struct PhysicalPlan {
  std::string action;
  std::vector<PlanStage> stages;

  /// Shuffle stages that will actually run (not already materialized).
  int NumPendingShuffleStages() const;
  /// Shuffle stages skipped because their output is still available.
  int NumMaterializedShuffleStages() const;
  /// Largest set of pending shuffle stages with no ordering between them
  /// at one dependency depth — the stage concurrency the scheduler can
  /// exploit (>= 2 means independent shuffles overlap).
  int MaxOverlapWidth() const;

  /// Human-readable plan dump (the Explain() output).
  std::string ToString() const;
};

/// The DAG scheduler: reifies the lineage DAG into a staged physical plan
/// and executes it. Replaces the old recursive one-shuffle-at-a-time
/// post-order walk — independent shuffle stages (e.g. the scatter stages
/// of the two sides of a matrix multiply) now materialize concurrently on
/// their own driver threads, each submitting its map/reduce stages to the
/// shared executor pool.
class Scheduler {
 public:
  explicit Scheduler(Context* ctx) : ctx_(ctx) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Builds the staged physical plan for running `action` over `roots`
  /// (multi-root plans model jobs like multi-attribute reconciliation).
  /// Pass an empty action for a materialize-only plan with no result
  /// stage. Does not execute anything.
  PhysicalPlan BuildPlan(const std::vector<internal::NodeBase*>& roots,
                         const std::string& action) const;

  /// Runs every pending shuffle stage of `plan` in dependency order;
  /// stages not ordered relative to each other run concurrently.
  void MaterializeShuffles(const PhysicalPlan& plan) const;

 private:
  Context* ctx_;
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_SCHEDULER_H_
