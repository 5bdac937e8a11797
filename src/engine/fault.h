#ifndef SPANGLE_ENGINE_FAULT_H_
#define SPANGLE_ENGINE_FAULT_H_

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace spangle {

/// Fault-tolerance knobs for a Context (Spark's spark.task.maxFailures
/// family). Read at the start of every stage, so they can be flipped
/// between jobs (e.g. by tests) without a new Context.
struct FaultToleranceOptions {
  /// Retries per task *within* one stage execution before the job is
  /// declared failed. 0 disables retry (first failure is fatal).
  int max_task_retries = 3;
  /// Backoff before the first retry round, doubled every round after.
  uint64_t retry_backoff_us = 500;
  /// Times a job re-plans and re-runs after discovering mid-execution
  /// that shuffle input blocks were lost (executor death). Each round
  /// rebuilds the physical plan, so only stages whose output is actually
  /// gone re-materialize (lineage recovery at stage granularity).
  int max_job_attempts = 4;
};

/// Identity of one task attempt as seen by ChaosPolicy predicates: enough
/// to key deterministic fault decisions on *what* is running rather than
/// on wall-clock timing.
struct ChaosTaskInfo {
  std::string stage;      // stage name, e.g. "reduceByKey/map" or "collect"
  int stage_attempt = 0;  // 0 = first execution of this stage
  int task = 0;           // partition index within the stage
  int attempt = 0;        // retry round of this task (0 = first run)
};

/// Deterministic fault-injection hooks, evaluated by the scheduler at the
/// start of every task attempt. Because every predicate is keyed on
/// (stage, stage_attempt, task, attempt), a policy describes *which work*
/// fails — independent of thread interleaving — which is what makes the
/// chaos suite's differential oracle reproducible from a seed. Null
/// members are skipped.
struct ChaosPolicy {
  /// Return true to kill this task attempt (thrown as TaskKilledError
  /// before the task body runs; the scheduler retries with backoff).
  std::function<bool(const ChaosTaskInfo&)> fail_task;
  /// Extra latency injected before the task body, microseconds. Used to
  /// manufacture slow tasks (overlapping stages, contended locks).
  std::function<uint64_t(const ChaosTaskInfo&)> delay_us;
  /// Return a worker id >= 0 to fail that executor (drop all its blocks,
  /// mid-job) when this task attempt starts; -1 for no failure.
  std::function<int(const ChaosTaskInfo&)> fail_executor;
  /// Return true to refuse the DISTRIBUTED store of shuffle `node`'s
  /// output `partition`, as a failed daemon put would. Evaluated inside
  /// the reduce task, after it has drained its map buckets.
  std::function<bool(uint64_t node, int partition)> fail_store;
};

/// Thrown when a task reads a shuffle output block that disappeared after
/// materialization (executor death mid-job). Not retryable at task level:
/// the scheduler must re-run the upstream stage(s) from lineage first.
class ShuffleBlockLostError : public std::runtime_error {
 public:
  explicit ShuffleBlockLostError(std::vector<uint64_t> nodes)
      : std::runtime_error(FormatMessage(nodes)), nodes_(std::move(nodes)) {}

  /// Lineage node ids whose shuffle output was found missing.
  const std::vector<uint64_t>& nodes() const { return nodes_; }

 private:
  static std::string FormatMessage(const std::vector<uint64_t>& nodes) {
    std::ostringstream os;
    os << "shuffle output block(s) lost for node(s)";
    for (uint64_t n : nodes) os << " #" << n;
    os << "; upstream stage must re-run from lineage";
    return os.str();
  }

  std::vector<uint64_t> nodes_;
};

/// Thrown by the chaos harness in place of a task body: models an
/// executor dying while running the task. Retryable.
class TaskKilledError : public std::runtime_error {
 public:
  TaskKilledError(const std::string& stage, int task, int attempt)
      : std::runtime_error("task " + stage + "[" + std::to_string(task) +
                           "] attempt " + std::to_string(attempt) +
                           " killed by chaos policy") {}
};

/// Terminal job failure: retries and job attempts are exhausted.
class JobFailedError : public std::runtime_error {
 public:
  explicit JobFailedError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_FAULT_H_
