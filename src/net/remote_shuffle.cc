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
                                          std::string_view bytes,
                                          uint64_t content_hash) {
  auto resp = fleet_->PutBlock(node, partition, bytes, content_hash);
  SPANGLE_RETURN_NOT_OK(resp.status());
  if (resp->deduped) {
    metrics_->shuffle_block_dedup_hits.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  return Status::OK();
}

std::optional<SlicedPayload> RemoteShuffleFetcher::FetchEncoded(
    uint64_t node, int partition) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t stored_hash = 0;
  auto frame = fleet_->FetchBlock(node, partition, &stored_hash);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  metrics_->AddRemoteFetchUs(static_cast<uint64_t>(us));
  if (!frame.has_value()) return std::nullopt;
  // Receipt validation, one hash per receipt: the received frame must
  // hash to the address the daemon stored it under AND to the hash its
  // own header carries. A mismatch with either is corruption (in flight
  // or in the daemon's store) — surfaced as a lost, retryable block,
  // never decoded. Passing both is what lets the reader decode without
  // hashing the frame again.
  const auto header_hash = codec::PeekFrameHash(frame->data(), frame->size());
  const bool valid =
      header_hash.ok() &&
      codec::ComputeFrameHash(frame->data(), frame->size()) == *header_hash &&
      (stored_hash == 0 || stored_hash == *header_hash);
  if (!valid) {
    SPANGLE_LOG(Warning) << "shuffle block (" << node << ", " << partition
                         << ") failed content-hash validation; treating as "
                            "lost";
    return std::nullopt;
  }
  metrics_->remote_shuffle_fetches.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

bool RemoteShuffleFetcher::ContainsAll(uint64_t node, int num_partitions) {
  for (int p = 0; p < num_partitions; ++p) {
    if (!fleet_->ProbeBlock(node, p)) return false;
  }
  return true;
}

}  // namespace net
}  // namespace spangle
