// StoreServerTcp / StoreClientTcp: the wire store must be observably the
// same Store as the in-memory base — same values, same typed timeouts,
// same retry semantics — plus transport-only behaviours (reconnect after a
// server restart). All sockets bind port 0 (collision-proof).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "comm/net_socket.h"
#include "comm/store.h"
#include "comm/store_tcp.h"

namespace ddpkit::comm {
namespace {

using StoreServerHandle = std::unique_ptr<StoreServerTcp>;

StoreServerHandle MustStart(int port = 0) {
  Result<StoreServerHandle> server = StoreServerTcp::Start("127.0.0.1", port);
  EXPECT_TRUE(server.ok()) << server.status().message();
  return std::move(server).value();
}

double WallSeconds() {
  // This test measures real wall-clock behaviour of the wire store.
  const auto now =
      std::chrono::steady_clock::now();  // ddplint: allow(banned-nondeterminism) reason: real-time store test
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

TEST(StoreTcpTest, SetGetTryGetParity) {
  StoreServerHandle server = MustStart();
  StoreClientTcp client("127.0.0.1", server->port());
  Store reference;

  const std::vector<std::pair<std::string, std::string>> entries = {
      {"a", "1"}, {"b", ""}, {"nested/key/path", std::string(1000, 'x')}};
  for (const auto& [key, value] : entries) {
    client.Set(key, value);
    reference.Set(key, value);
  }
  // A zero-timeout GetWithRetry is one immediate lookup on both stores.
  for (const auto& [key, value] : entries) {
    Result<std::string> via_wire = client.GetWithRetry(key, 0.0);
    Result<std::string> via_memory = reference.GetWithRetry(key, 0.0);
    ASSERT_TRUE(via_wire.ok()) << via_wire.status().ToString();
    ASSERT_TRUE(via_memory.ok()) << via_memory.status().ToString();
    EXPECT_EQ(via_wire.value(), via_memory.value());
    EXPECT_EQ(via_wire.value(), value);
    EXPECT_EQ(client.Get(key), reference.Get(key));
  }
  EXPECT_EQ(client.NumKeys(), reference.NumKeys());
  EXPECT_EQ(client.GetWithRetry("absent", 0.0).status().code(),
            StatusCode::kTimedOut);
}

TEST(StoreTcpTest, AddIsAtomicAcrossClients) {
  StoreServerHandle server = MustStart();
  constexpr int kClients = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      StoreClientTcp client("127.0.0.1", server->port());
      for (int i = 0; i < kIncrements; ++i) {
        EXPECT_TRUE(client.AddWithRetry("counter", 1, nullptr).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  StoreClientTcp reader("127.0.0.1", server->port());
  int64_t total = 0;
  ASSERT_TRUE(reader.AddWithRetry("counter", 0, &total).ok());
  EXPECT_EQ(total, kClients * kIncrements);
}

TEST(StoreTcpTest, TwoClientsShareOneNamespace) {
  StoreServerHandle server = MustStart();
  StoreClientTcp writer("127.0.0.1", server->port());
  StoreClientTcp reader("127.0.0.1", server->port());
  writer.Set("shared", "value");
  EXPECT_EQ(reader.Get("shared"), "value");
  // And the launcher-side backing store sees the same data.
  Result<std::string> via_backing =
      server->backing().GetWithRetry("shared", 0.0);
  ASSERT_TRUE(via_backing.ok()) << via_backing.status().ToString();
  EXPECT_EQ(via_backing.value(), "value");
}

TEST(StoreTcpTest, GetBlocksUntilAnotherClientSets) {
  StoreServerHandle server = MustStart();
  StoreClientTcp reader("127.0.0.1", server->port());
  std::string got;
  std::thread blocked([&] { got = reader.Get("late"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  StoreClientTcp writer("127.0.0.1", server->port());
  writer.Set("late", "arrived");
  blocked.join();
  EXPECT_EQ(got, "arrived");
}

TEST(StoreTcpTest, DeleteKeyAndPrefixParity) {
  StoreServerHandle server = MustStart();
  StoreClientTcp client("127.0.0.1", server->port());
  client.Set("epoch0/a", "1");
  client.Set("epoch0/b", "2");
  client.Set("epoch1/a", "3");
  Result<int64_t> deleted = client.DeletePrefixWithRetry("epoch0/");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted.value(), 2);
  EXPECT_EQ(client.NumKeys(), 1u);
  EXPECT_TRUE(client.GetWithRetry("epoch1/a", 0.0).ok());
}

TEST(StoreTcpTest, BoundedGetTimesOutTyped) {
  StoreServerHandle server = MustStart();
  StoreClientTcp client("127.0.0.1", server->port());
  const double start = WallSeconds();
  Result<std::string> result = client.GetWithRetry("never-set", 0.3);
  const double elapsed = WallSeconds() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut)
      << result.status().message();
  EXPECT_GE(elapsed, 0.25);  // actually waited (server-held slices)
  EXPECT_LT(elapsed, 5.0);   // and didn't hang
}

TEST(StoreTcpTest, BoundedGetReturnsValueSetMidWait) {
  StoreServerHandle server = MustStart();
  StoreClientTcp client("127.0.0.1", server->port());
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    StoreClientTcp writer("127.0.0.1", server->port());
    writer.Set("mid-wait", "v");
  });
  Result<std::string> result = client.GetWithRetry("mid-wait", 5.0);
  setter.join();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value(), "v");
}

TEST(StoreTcpTest, ClientReconnectsAfterServerRestart) {
  StoreServerHandle server = MustStart();
  const int port = server->port();
  StoreClientTcp client("127.0.0.1", port);
  client.Set("before", "restart");

  server->Stop();
  server.reset();
  // Same port, fresh server (fresh, empty backing store): the client's
  // next retryable attempt reconnects transparently.
  server = MustStart(port);
  EXPECT_TRUE(client.SetWithRetry("after", "reconnect").ok());
  Result<std::string> value = client.GetWithRetry("after", 0.0);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value.value(), "reconnect");
  // The restart counts as (at least one) observed transport failure.
  EXPECT_GE(client.transient_failures(), 1u);
}

TEST(StoreTcpTest, UnreachableServerFailsTypedNotHangs) {
  // Grab a port that is free, then close the listener so nothing answers.
  int dead_port;
  {
    StoreServerHandle server = MustStart();
    dead_port = server->port();
    server->Stop();
  }
  StoreClientTcp::Options options;
  options.connect_timeout_seconds = 0.2;
  StoreClientTcp client("127.0.0.1", dead_port, options);
  const double start = WallSeconds();
  const Status status = client.SetWithRetry("k", "v");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.message();
  EXPECT_EQ(client.transient_failures(),
            static_cast<uint64_t>(Store::kMaxAttempts));
  EXPECT_LT(WallSeconds() - start, 30.0);
  // A refused connect fails each attempt at once, so all of them together
  // take less than one attempt's connect timeout.
  EXPECT_LT(WallSeconds() - start, options.connect_timeout_seconds);
}

TEST(StoreTcpTest, WireRetryPolicyHonorsRealClock) {
  StoreServerHandle server = MustStart();
  StoreClientTcp client("127.0.0.1", server->port());
  // A healthy wire Get within its deadline returns promptly once the key
  // appears.
  client.Set("ready", "now");
  Result<std::string> result = client.GetWithRetry("ready", 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "now");
}

TEST(StoreTcpTest, ServerStopUnblocksHeldGets) {
  StoreServerHandle server = MustStart();
  StoreClientTcp::Options options;
  options.connect_timeout_seconds = 0.2;  // keep post-Stop reconnects short
  StoreClientTcp client("127.0.0.1", server->port(), options);
  std::thread blocked([&] {
    // Bounded wait held server-side; Stop() must not strand it for the
    // full timeout.
    Result<std::string> result = client.GetWithRetry("never", 30.0);
    EXPECT_FALSE(result.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double start = WallSeconds();
  server->Stop();
  blocked.join();
  EXPECT_LT(WallSeconds() - start, 10.0);
}

// Regression: per-connection thread lifecycle under churn. A client that
// connects, does one RPC, and drops the socket — the self-healing TCP
// backend's re-mesh does exactly this against the rendezvous store — must
// not grow the server's thread table without bound: the accept loop reaps
// finished threads before admitting each newcomer.
TEST(StoreTcpTest, ConnectionChurnKeepsThreadCountBounded) {
  StoreServerHandle server = MustStart();
  constexpr int kCycles = 100;
  size_t max_tracked = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    StoreClientTcp client("127.0.0.1", server->port());
    ASSERT_TRUE(client.SetWithRetry("churn", "x").ok()) << "cycle " << cycle;
    // Client destructor closes the socket: a hard reset from the server
    // thread's point of view.
    max_tracked = std::max(max_tracked, server->tracked_connections());
  }
  // Sequential churn leaves at most a handful of threads between the
  // moment a client hangs up and the next accept's reap. Without reaping
  // this reaches kCycles.
  EXPECT_LE(max_tracked, 16u) << "dead connection threads accumulate";

  // After the dust settles, one more connection's reap leaves only itself
  // (and any stragglers still in their epilogue).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  StoreClientTcp last("127.0.0.1", server->port());
  ASSERT_TRUE(last.SetWithRetry("churn", "x").ok());
  EXPECT_LE(server->tracked_connections(), 4u);
}

// --- Rejected requests: answered typed, and the server survives ----------

/// Each case runs against the wire client and the in-memory store, which
/// must give the same codes. Afterwards the wire server still answers and
/// neither store counted the rejection as a transient failure.
struct StorePair {
  StoreServerHandle server = MustStart();
  StoreClientTcp client{"127.0.0.1", server->port()};
  Store memory;

  std::vector<Store*> both() { return {&client, &memory}; }

  void ExpectHealthy() {
    for (Store* store : both()) {
      store->Set("health", "ok");
      EXPECT_EQ("ok", store->Get("health"));
      EXPECT_EQ(0u, store->transient_failures());
    }
  }
};

TEST(StoreTcpTest, AddOnNonIntegerValueIsInvalidArgument) {
  StorePair stores;
  for (Store* store : stores.both()) {
    store->Set("k", "not-a-number");
    int64_t result = -1;
    const Status status = store->AddWithRetry("k", 1, &result);
    EXPECT_EQ(StatusCode::kInvalidArgument, status.code())
        << status.ToString();
    EXPECT_EQ(-1, result);
    EXPECT_EQ("not-a-number", store->Get("k"));
  }
  stores.ExpectHealthy();
}

TEST(StoreTcpTest, AddPastInt64IsOutOfRange) {
  StorePair stores;
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  for (Store* store : stores.both()) {
    store->Set("hi", std::to_string(max));
    store->Set("lo", std::to_string(min));
    const Status up = store->AddWithRetry("hi", 1, nullptr);
    const Status down = store->AddWithRetry("lo", -1, nullptr);
    EXPECT_EQ(StatusCode::kOutOfRange, up.code()) << up.ToString();
    EXPECT_EQ(StatusCode::kOutOfRange, down.code()) << down.ToString();
    EXPECT_EQ(std::to_string(max), store->Get("hi"));
    EXPECT_EQ(std::to_string(min), store->Get("lo"));
    // The edges themselves are reachable.
    int64_t result = 0;
    ASSERT_TRUE(store->AddWithRetry("hi", -1, &result).ok());
    EXPECT_EQ(max - 1, result);
    ASSERT_TRUE(store->AddWithRetry("hi", 1, &result).ok());
    EXPECT_EQ(max, result);
  }
  stores.ExpectHealthy();
}

TEST(StoreTcpTest, BoundedGetRejectsNonFiniteOrNegativeTimeout) {
  StorePair stores;
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(), -1.0};
  for (Store* store : stores.both()) {
    // The key exists, so only the timeout can fail the request.
    store->Set("k", "v");
    for (double timeout : bad) {
      SCOPED_TRACE(timeout);
      Result<std::string> got = store->GetWithRetry("k", timeout);
      EXPECT_EQ(StatusCode::kInvalidArgument, got.status().code())
          << got.status().ToString();
    }
  }
  stores.ExpectHealthy();
}

/// Raw request frames for the wire server, encoded as StoreClientTcp
/// encodes them: u8 opcode, strings as u32 length + bytes, f64 native.
struct Frame {
  std::vector<uint8_t> bytes;
  Frame& U8(uint8_t v) {
    bytes.push_back(v);
    return *this;
  }
  Frame& Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
    return *this;
  }
  Frame& U32(uint32_t v) { return Raw(&v, sizeof(v)); }
  Frame& F64(double v) { return Raw(&v, sizeof(v)); }
  Frame& Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    return Raw(s.data(), s.size());
  }
};

constexpr uint8_t kOpGetBounded = 4;
constexpr uint8_t kOpNumKeys = 6;

// A bounded Get frame with a NaN, infinite or negative timeout, and a
// well-formed frame of each retired op (2 TryGet, 5 WaitBounded, 7
// DeleteKey, 9 Ping), are answered kInvalidArgument on the same
// connection, which then still serves a NumKeys.
TEST(StoreTcpTest, WireBoundedOpsRejectBadTimeoutTyped) {
  StorePair stores;
  Result<int> fd = ConnectWithDeadline("127.0.0.1", stores.server->port(),
                                       Deadline::After(10.0));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const auto round_trip = [&](const Frame& frame) {
    EXPECT_TRUE(SendFrame(fd.value(), frame.bytes.data(), frame.bytes.size(),
                          Deadline::After(5.0))
                    .ok());
    Result<std::vector<uint8_t>> response =
        RecvFrame(fd.value(), Deadline::After(5.0));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ValueOr({});
  };
  std::vector<Frame> rejected;
  for (double timeout : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    rejected.push_back(Frame().U8(kOpGetBounded).Str("never").F64(timeout));
  }
  rejected.push_back(Frame().U8(2).Str("never"));
  rejected.push_back(Frame().U8(5).U32(1).Str("never").F64(0.0));
  rejected.push_back(Frame().U8(7).Str("never"));
  rejected.push_back(Frame().U8(9));
  for (const Frame& frame : rejected) {
    SCOPED_TRACE("opcode " + std::to_string(frame.bytes[0]));
    const std::vector<uint8_t> response = round_trip(frame);
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(static_cast<uint8_t>(StatusCode::kInvalidArgument),
              response[0]);
    // Status 0, then the store's key count (still 0) as an int64.
    const std::vector<uint8_t> count = round_trip(Frame().U8(kOpNumKeys));
    EXPECT_EQ(std::vector<uint8_t>(1 + sizeof(int64_t), 0), count);
  }
  CloseFd(fd.value());
  stores.ExpectHealthy();
}

}  // namespace
}  // namespace ddpkit::comm
