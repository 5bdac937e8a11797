// Loopback RPC suite: an in-process ExecutorDaemon served over real TCP
// sockets, driven by RpcClient. Covers every message the fleet uses
// (put/fetch/probe/heartbeat/shutdown), the typed-error path
// (non-OK handler Status travels as a kError frame and comes back as the
// original Status), reconnect-after-drop, Abort() unblocking a call, and
// a multi-threaded put/fetch storm for the TSan label.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/executor_daemon.h"
#include "net/message.h"
#include "net/rpc_client.h"

namespace spangle {
namespace net {
namespace {

/// Daemon + connected client, torn down in order.
class RpcLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ExecutorDaemonOptions opts;
    opts.executor_id = 7;
    daemon_ = std::make_unique<ExecutorDaemon>(opts);
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_GT(daemon_->port(), 0);
    client_ = std::make_unique<RpcClient>(daemon_->port());
    ASSERT_TRUE(client_->Connect().ok());
  }

  void TearDown() override {
    client_.reset();
    daemon_->Stop();
    daemon_.reset();
  }

  std::unique_ptr<ExecutorDaemon> daemon_;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(RpcLoopbackTest, PutFetchProbeRoundTrip) {
  PutBlockRequest put;
  put.node = 42;
  put.partition = 3;
  put.bytes = std::string("shuffle-bytes\0with-nul", 22);
  auto put_resp = client_->TypedCall<PutBlockRequest, PutBlockResponse>(put);
  ASSERT_TRUE(put_resp.ok()) << put_resp.status().ToString();

  ProbeBlockRequest probe;
  probe.node = 42;
  probe.partition = 3;
  auto probe_resp =
      client_->TypedCall<ProbeBlockRequest, ProbeBlockResponse>(probe);
  ASSERT_TRUE(probe_resp.ok());
  EXPECT_TRUE(probe_resp->found);

  FetchBlockRequest fetch;
  fetch.node = 42;
  fetch.partition = 3;
  auto fetch_resp =
      client_->TypedCall<FetchBlockRequest, FetchBlockResponse>(fetch);
  ASSERT_TRUE(fetch_resp.ok());
  EXPECT_TRUE(fetch_resp->found);
  EXPECT_EQ(fetch_resp->bytes, put.bytes);
  // Every request carried the default all-zero (untraced) header, so the
  // daemon recorded no serve span.
  EXPECT_TRUE(daemon_->spans().Snapshot().empty());
}

TEST_F(RpcLoopbackTest, FetchMissingBlockReportsNotFound) {
  FetchBlockRequest fetch;
  fetch.node = 999;
  fetch.partition = 0;
  auto resp = client_->TypedCall<FetchBlockRequest, FetchBlockResponse>(fetch);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->found);
  EXPECT_TRUE(resp->bytes.empty());

  ProbeBlockRequest probe;
  probe.node = 999;
  probe.partition = 0;
  auto probe_resp =
      client_->TypedCall<ProbeBlockRequest, ProbeBlockResponse>(probe);
  ASSERT_TRUE(probe_resp.ok());
  EXPECT_FALSE(probe_resp->found);
}

TEST_F(RpcLoopbackTest, OverwritePutKeepsLatestBytes) {
  PutBlockRequest put;
  put.node = 5;
  put.partition = 1;
  put.bytes = "first";
  ASSERT_TRUE(
      (client_->TypedCall<PutBlockRequest, PutBlockResponse>(put)).ok());
  put.bytes = "second-longer-payload";
  ASSERT_TRUE(
      (client_->TypedCall<PutBlockRequest, PutBlockResponse>(put)).ok());

  FetchBlockRequest fetch;
  fetch.node = 5;
  fetch.partition = 1;
  auto resp = client_->TypedCall<FetchBlockRequest, FetchBlockResponse>(fetch);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->found);
  // Re-materialized partitions may be re-pushed; the latest write wins.
  EXPECT_EQ(resp->bytes, "second-longer-payload");
}

TEST_F(RpcLoopbackTest, HeartbeatEchoesSeqAndCountsState) {
  PutBlockRequest put;
  put.node = 1;
  put.partition = 0;
  put.bytes = std::string(1024, 'x');
  ASSERT_TRUE(
      (client_->TypedCall<PutBlockRequest, PutBlockResponse>(put)).ok());

  HeartbeatRequest hb;
  hb.seq = 777;
  auto resp = client_->TypedCall<HeartbeatRequest, HeartbeatResponse>(hb);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->seq, 777u);
  EXPECT_EQ(resp->blocks_held, 1u);
  EXPECT_GE(resp->bytes_in_memory, 1024u);
}

TEST_F(RpcLoopbackTest, UnservedRequestTravelsBackAsTypedError) {
  // A response type sent as a request: the daemon has no handler for it.
  PutBlockResponse req;
  auto resp = client_->TypedCall<PutBlockResponse, PutBlockResponse>(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);

  // A typed error is an application failure, not a transport failure:
  // the connection survives and the next call works without reconnect.
  EXPECT_TRUE(client_->connected());
  HeartbeatRequest hb;
  hb.seq = 2;
  EXPECT_TRUE((client_->TypedCall<HeartbeatRequest, HeartbeatResponse>(hb))
                  .ok());
}

TEST_F(RpcLoopbackTest, MalformedRequestPayloadRejected) {
  auto resp = client_->Call(MessageType::kFetchBlockRequest, "not-a-fetch",
                            MessageType::kFetchBlockResponse);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client_->connected());
}

TEST_F(RpcLoopbackTest, LazyReconnectAfterManualDrop) {
  // A second client that never called Connect() connects lazily on the
  // first Call.
  RpcClient lazy(daemon_->port());
  EXPECT_FALSE(lazy.connected());
  HeartbeatRequest hb;
  hb.seq = 3;
  auto resp = lazy.TypedCall<HeartbeatRequest, HeartbeatResponse>(hb);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(lazy.connected());
}

TEST_F(RpcLoopbackTest, AbortTearsConnectionAndNextCallReconnects) {
  // Abort with no in-flight call shuts the socket under the client: the
  // next call fails (dropping the dead connection), the one after that
  // reconnects. This mirrors the fleet's use — Abort targets a daemon
  // known dead, whose in-flight caller reports failure and retries.
  client_->Abort();
  HeartbeatRequest hb;
  hb.seq = 4;
  auto resp = client_->TypedCall<HeartbeatRequest, HeartbeatResponse>(hb);
  EXPECT_FALSE(resp.ok()) << "aborted socket must fail the next call";
  resp = client_->TypedCall<HeartbeatRequest, HeartbeatResponse>(hb);
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
}

TEST_F(RpcLoopbackTest, CallAgainstStoppedDaemonFailsCleanly) {
  daemon_->Stop();
  HeartbeatRequest hb;
  hb.seq = 5;
  auto resp = client_->TypedCall<HeartbeatRequest, HeartbeatResponse>(hb);
  EXPECT_FALSE(resp.ok());
}

TEST_F(RpcLoopbackTest, ConcurrentClientsPutAndFetchRace) {
  // 4 threads x 32 blocks each, through 4 independent connections, then
  // every thread verifies every block. Exercises the server's
  // thread-per-connection path under TSan.
  constexpr int kThreads = 4;
  constexpr int kBlocks = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      RpcClient c(daemon_->port());
      // Payload "t<t>.b<b>".
      const auto payload = [t](int b) {
        return std::string("t")
            .append(std::to_string(t))
            .append(".b")
            .append(std::to_string(b));
      };
      for (int b = 0; b < kBlocks; ++b) {
        PutBlockRequest put;
        put.node = 100 + static_cast<uint64_t>(t);
        put.partition = b;
        put.bytes = payload(b);
        if (!(c.TypedCall<PutBlockRequest, PutBlockResponse>(put)).ok()) {
          failures.fetch_add(1);
        }
      }
      for (int b = 0; b < kBlocks; ++b) {
        FetchBlockRequest fetch;
        fetch.node = 100 + static_cast<uint64_t>(t);
        fetch.partition = b;
        auto resp =
            c.TypedCall<FetchBlockRequest, FetchBlockResponse>(fetch);
        if (!resp.ok() || !resp->found || resp->bytes != payload(b)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  HeartbeatRequest hb;
  hb.seq = 6;
  auto resp = client_->TypedCall<HeartbeatRequest, HeartbeatResponse>(hb);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->blocks_held, static_cast<uint64_t>(kThreads * kBlocks));
}

TEST(RpcShutdownTest, ShutdownRpcStopsWait) {
  ExecutorDaemonOptions opts;
  auto daemon = std::make_unique<ExecutorDaemon>(opts);
  ASSERT_TRUE(daemon->Start().ok());
  std::thread waiter([&daemon] { daemon->Wait(); });

  RpcClient client(daemon->port());
  ShutdownRequest req;
  auto resp = client.TypedCall<ShutdownRequest, ShutdownResponse>(req);
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  waiter.join();  // Wait() returns once the Shutdown RPC lands.
}

}  // namespace
}  // namespace net
}  // namespace spangle
