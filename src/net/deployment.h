#ifndef SPANGLE_NET_DEPLOYMENT_H_
#define SPANGLE_NET_DEPLOYMENT_H_

#include <cstdint>
#include <string>

namespace spangle {

/// How a Context places shuffle data.
///
/// kLocal is the historical single-process engine: shuffle blocks live in
/// the driver's BlockManager and every test/bench built before the net
/// layer runs unchanged. kDistributed spawns spangle_executord child
/// processes; shuffle blocks are stored only on the daemons and stage
/// inputs are fetched back over the RPC transport, so killing a daemon
/// genuinely loses data and exercises lineage recovery.
enum class DeploymentMode {
  kLocal,
  kDistributed,
};

struct DistributedOptions {
  /// Executor daemons to spawn. Shuffle partition p is owned by daemon
  /// p % num_executors.
  int num_executors = 2;

  /// Path to the spangle_executord binary. Empty = discover via the
  /// SPANGLE_EXECUTORD env var, then paths relative to /proc/self/exe.
  std::string executord_path;

  /// Per-daemon BlockManager budget in bytes; 0 = the daemon default.
  uint64_t executor_memory_budget = 0;

  /// Heartbeat probe period; 0 disables the heartbeat thread (tests that
  /// want deterministic failure detection poll explicitly instead).
  int heartbeat_interval_ms = 0;

  /// Consecutive missed heartbeats before a daemon is declared dead.
  int heartbeat_miss_limit = 3;

  /// Respawn a replacement daemon when one dies. Leave on: without a
  /// replacement the owner slot for its partitions stays down and jobs
  /// cannot complete.
  bool restart_on_failure = true;

  /// How long to wait for a spawned daemon to announce its port.
  int spawn_timeout_ms = 15000;
};

struct DeploymentOptions {
  DeploymentMode mode = DeploymentMode::kLocal;
  DistributedOptions distributed;
};

}  // namespace spangle

#endif  // SPANGLE_NET_DEPLOYMENT_H_
