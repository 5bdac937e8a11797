#ifndef SPANGLE_NET_REMOTE_SHUFFLE_H_
#define SPANGLE_NET_REMOTE_SHUFFLE_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "net/message.h"

namespace spangle {

class EngineMetrics;

namespace net {

class ExecutorFleet;

/// The shuffle data plane in DISTRIBUTED mode: ShuffleNode hands encoded
/// partitions here instead of the driver's BlockManager. Blocks live
/// only on the daemons, so a killed daemon genuinely loses its shard and
/// the reader path reports the loss for lineage recovery. Thread safe
/// (stateless over the fleet).
class RemoteShuffleFetcher {
 public:
  RemoteShuffleFetcher(ExecutorFleet* fleet, EngineMetrics* metrics);

  /// Stores one encoded partition (a chunk frame) on its owner daemon.
  /// `content_hash` is the frame's content address: the daemon validates
  /// the bytes on receipt, and a daemon that already holds an identical
  /// payload reports a dedup, counted in shuffle_block_dedup_hits. The
  /// frame is sent straight from `bytes`, never copied.
  Status StoreEncoded(uint64_t node, int partition, std::string_view bytes,
                      uint64_t content_hash);

  /// Fetches one partition's encoding, located inside the reply it
  /// arrived in. A returned frame's content hash has been checked — it
  /// matches the frame's header and the address the daemon stored it
  /// under (when it has one) — so the caller may decode it with
  /// verify_hash=false. nullopt = the
  /// block is gone (daemon died/restarted) OR the received frame failed
  /// that check (corruption) — both are retryable losses the caller
  /// raises as ShuffleBlockLostError. Fetch wall time is credited to
  /// remote_fetch_time_us and the calling task's stage.
  std::optional<SlicedPayload> FetchEncoded(uint64_t node, int partition);

  /// True when every partition [0, num_partitions) is still held by its
  /// owner daemon — the DISTRIBUTED materialization check.
  bool ContainsAll(uint64_t node, int num_partitions);

 private:
  ExecutorFleet* const fleet_;
  EngineMetrics* const metrics_;
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_REMOTE_SHUFFLE_H_
