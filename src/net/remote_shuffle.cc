#include "net/remote_shuffle.h"

#include <chrono>
#include <utility>

#include "codec/chunk_frame.h"
#include "common/logging.h"
#include "engine/metrics.h"
#include "net/executor_fleet.h"

namespace spangle {
namespace net {

RemoteShuffleFetcher::RemoteShuffleFetcher(ExecutorFleet* fleet,
                                           EngineMetrics* metrics)
    : fleet_(fleet), metrics_(metrics) {
  SPANGLE_CHECK(fleet_ != nullptr);
  SPANGLE_CHECK(metrics_ != nullptr);
}

Status RemoteShuffleFetcher::StoreEncoded(uint64_t node, int partition,
                                          std::string bytes,
                                          uint64_t content_hash) {
  auto resp =
      fleet_->PutBlock(node, partition, std::move(bytes), content_hash);
  SPANGLE_RETURN_NOT_OK(resp.status());
  if (resp->deduped) {
    metrics_->shuffle_block_dedup_hits.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  return Status::OK();
}

std::optional<std::string> RemoteShuffleFetcher::FetchEncoded(uint64_t node,
                                                              int partition) {
  const auto start = std::chrono::steady_clock::now();
  auto resp = fleet_->FetchBlock(node, partition);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  metrics_->AddRemoteFetchUs(static_cast<uint64_t>(us));
  if (!resp.ok() || !resp->found) return std::nullopt;
  // Receipt validation: re-hash the received frame and compare against
  // the hash the block was stored under. A mismatch is wire corruption —
  // surfaced as a lost (retryable) block, never decoded.
  if (resp->content_hash != 0 &&
      (resp->bytes.size() < codec::kFrameHeaderBytes ||
       codec::ComputeFrameHash(resp->bytes.data(), resp->bytes.size()) !=
           resp->content_hash)) {
    SPANGLE_LOG(Warning) << "shuffle block (" << node << ", " << partition
                         << ") failed content-hash validation; treating as "
                            "lost";
    return std::nullopt;
  }
  metrics_->remote_shuffle_fetches.fetch_add(1, std::memory_order_relaxed);
  return std::move(resp->bytes);
}

bool RemoteShuffleFetcher::ContainsAll(uint64_t node, int num_partitions) {
  for (int p = 0; p < num_partitions; ++p) {
    if (!fleet_->ProbeBlock(node, p)) return false;
  }
  return true;
}

}  // namespace net
}  // namespace spangle
