// RpcClient's connection pool against a bare RpcServer whose handler the
// test controls. One client must carry several calls to one server at
// the same time (each on its own pooled connection), Abort() must fail
// every call in flight, a transport error must cost only the connection
// it happened on, and a heartbeat must not queue behind a large put.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/message.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"

namespace spangle {
namespace net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr auto kWait = std::chrono::seconds(10);

/// Handler-side bookkeeping: how many calls are inside the handler, and
/// a latch the test opens to let blocked handlers finish.
class Gate {
 public:
  /// A barrier: counts this call in and waits until `n` calls have
  /// arrived. False on timeout.
  bool ArriveAndWaitFor(int n) {
    std::unique_lock<std::mutex> l(mu_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(l, kWait, [&] { return arrived_ >= n; });
  }

  /// Counts this call in, then blocks until Open() (or a timeout).
  void ArriveAndWaitForOpen() {
    std::unique_lock<std::mutex> l(mu_);
    ++in_flight_;
    cv_.notify_all();
    cv_.wait_for(l, kWait, [&] { return open_; });
    --in_flight_;
  }

  /// Test side: waits until `n` calls are inside the handler.
  bool WaitForInFlight(int n) {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, kWait, [&] { return in_flight_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> l(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  int in_flight_ = 0;
  bool open_ = false;
};

Status EchoHeartbeat(const std::string& payload, RpcReply* reply) {
  auto req = HeartbeatRequest::Parse(payload.data(), payload.size());
  if (!req.ok()) return req.status();
  HeartbeatResponse resp;
  resp.seq = req->seq;
  reply->type = HeartbeatResponse::kType;
  resp.AppendTo(&reply->head);
  return Status::OK();
}

Result<HeartbeatResponse> Heartbeat(RpcClient* client, uint64_t seq) {
  HeartbeatRequest req;
  req.seq = seq;
  return client->TypedCall<HeartbeatRequest, HeartbeatResponse>(req);
}

TEST(RpcPoolTest, TwoCallsToOneServerRunAtTheSameTime) {
  // Each handler waits until two calls are inside it. A client that
  // serialized its calls would hold the second back until the first
  // timed out.
  Gate gate;
  const RpcServer::Handler handler = [&gate](MessageType, std::string payload,
                                             RpcReply* reply) {
    if (!gate.ArriveAndWaitFor(2)) {
      return Status::Internal("calls were serialized");
    }
    return EchoHeartbeat(payload, reply);
  };
  RpcServer server;
  ASSERT_TRUE(server.Start(0, handler).ok());
  RpcClient client(server.port());
  std::vector<Status> results(2);
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      auto resp = Heartbeat(&client, 10 + t);
      results[t] = resp.ok() && resp->seq == static_cast<uint64_t>(10 + t)
                       ? Status::OK()
                       : resp.status();
    });
  }
  for (auto& c : callers) c.join();
  for (const Status& st : results) EXPECT_TRUE(st.ok()) << st.ToString();
  // The pool grew to the concurrency it saw, and no further.
  EXPECT_EQ(client.num_connections(), 2u);
  server.Stop();
}

TEST(RpcPoolTest, AbortUnblocksEveryCallInFlight) {
  Gate gate;
  const RpcServer::Handler handler = [&gate](MessageType, std::string payload,
                                             RpcReply* reply) {
    gate.ArriveAndWaitForOpen();
    return EchoHeartbeat(payload, reply);
  };
  RpcServer server;
  ASSERT_TRUE(server.Start(0, handler).ok());
  RpcClient client(server.port());
  constexpr int kCalls = 3;
  std::atomic<int> failed{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCalls; ++t) {
    callers.emplace_back([&, t] {
      if (!Heartbeat(&client, t).ok()) failed.fetch_add(1);
    });
  }
  ASSERT_TRUE(gate.WaitForInFlight(kCalls));
  const auto start = steady_clock::now();
  client.Abort();
  for (auto& c : callers) c.join();
  const auto took = steady_clock::now() - start;
  EXPECT_EQ(failed.load(), kCalls) << "every aborted call must fail";
  EXPECT_LT(took, milliseconds(5000))
      << "Abort must unblock the calls, not wait out the handlers";
  gate.Open();
  server.Stop();
}

TEST(RpcPoolTest, TransportErrorDropsOnlyItsOwnConnection) {
  // seq 666 is answered with a frame of a retired message type: the
  // client cannot parse that header, a transport error on that one
  // connection. seq 1 and 2 meet inside the handler, so the pool holds
  // two connections first.
  Gate gate;
  const RpcServer::Handler handler = [&gate](MessageType, std::string payload,
                                             RpcReply* reply) {
    auto req = HeartbeatRequest::Parse(payload.data(), payload.size());
    if (req.ok() && req->seq == 666) {
      reply->type = static_cast<MessageType>(2);
      return Status::OK();
    }
    if (req.ok() && req->seq <= 2 && !gate.ArriveAndWaitFor(2)) {
      return Status::Internal("calls were serialized");
    }
    return EchoHeartbeat(payload, reply);
  };
  RpcServer server;
  ASSERT_TRUE(server.Start(0, handler).ok());
  RpcClient client(server.port());
  std::thread other([&client] { EXPECT_TRUE(Heartbeat(&client, 1).ok()); });
  EXPECT_TRUE(Heartbeat(&client, 2).ok());
  other.join();
  ASSERT_EQ(client.num_connections(), 2u);

  EXPECT_FALSE(Heartbeat(&client, 666).ok());
  EXPECT_EQ(client.num_connections(), 1u)
      << "only the connection that saw the error is dropped";
  for (uint64_t seq = 3; seq < 6; ++seq) {
    auto resp = Heartbeat(&client, seq);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->seq, seq);
  }
  EXPECT_EQ(client.num_connections(), 1u)
      << "sequential calls reuse the surviving connection";
  server.Stop();
}

TEST(RpcPoolTest, HeartbeatAnsweredWhileLargePutInFlight) {
  // The put's handler holds it in flight until a heartbeat has been
  // answered; a heartbeat queued behind the put would deadlock both
  // until the handler gave up.
  std::mutex mu;
  std::condition_variable cv;
  bool put_started = false;
  bool heartbeat_served = false;
  const RpcServer::Handler handler = [&](MessageType type, std::string payload,
                                         RpcReply* reply) {
    if (type == MessageType::kHeartbeatRequest) {
      {
        std::lock_guard<std::mutex> l(mu);
        heartbeat_served = true;
      }
      cv.notify_all();
      return EchoHeartbeat(payload, reply);
    }
    auto put = PutBlockRequestView::Parse(payload.data(), payload.size());
    if (!put.ok()) return put.status();
    std::unique_lock<std::mutex> l(mu);
    put_started = true;
    cv.notify_all();
    if (!cv.wait_for(l, kWait, [&] { return heartbeat_served; })) {
      return Status::Internal("heartbeat queued behind the put");
    }
    reply->type = PutBlockResponse::kType;
    PutBlockResponse().AppendTo(&reply->head);
    return Status::OK();
  };
  RpcServer server;
  ASSERT_TRUE(server.Start(0, handler).ok());
  RpcClient client(server.port());
  PutBlockRequest put;
  put.node = 1;
  put.bytes = std::string(8 << 20, 'p');
  Status put_status;
  std::thread putter([&] {
    auto resp = client.TypedCall<PutBlockRequest, PutBlockResponse>(put);
    put_status = resp.status();
  });
  {
    std::unique_lock<std::mutex> l(mu);
    ASSERT_TRUE(cv.wait_for(l, kWait, [&] { return put_started; }));
  }
  auto hb = Heartbeat(&client, 99);
  ASSERT_TRUE(hb.ok()) << hb.status().ToString();
  EXPECT_EQ(hb->seq, 99u);
  putter.join();
  EXPECT_TRUE(put_status.ok()) << put_status.ToString();
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace spangle
