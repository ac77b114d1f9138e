// WireFaultPlan / WireFaultInjector: every injected fault kind must be
// replayable from its plan, visible to the peer as a real wire condition
// (EOF, reset, stall), and invisible when the plan is empty. Fault
// decisions are seed/op deterministic; only their wall timing is real.
//
// Also hosts the net_socket edge-case regressions from the wire audit:
// typed errors for a peer reset mid-frame and send-side partial shutdown.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "comm/chaos_spec.h"
#include "comm/fault_plan.h"
#include "comm/net_fault.h"
#include "comm/net_socket.h"

namespace ddpkit::comm {
namespace {

// ddplint: allow-file(banned-nondeterminism) reason: these tests measure
// real wall-clock wire behaviour (blackhole waits, slow-link pacing) on
// purpose.

/// A connected AF_UNIX stream pair; index 0 plays "rank 0's end".
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  }
  ~SocketPair() {
    CloseFd(fds[0]);
    CloseFd(fds[1]);
  }
};

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(WireFaultPlanTest, RandomPairIsSeedDeterministic) {
  for (int world : {2, 4, 8}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const auto a = WireFaultPlan::RandomPair(seed, world);
      const auto b = WireFaultPlan::RandomPair(seed, world);
      EXPECT_EQ(a, b) << "seed " << seed << " world " << world;
      EXPECT_GE(a.first, 0);
      EXPECT_LT(a.first, a.second);
      EXPECT_LT(a.second, world);
    }
  }
  // Different seeds must not all collapse onto one pair.
  bool any_differ = false;
  const auto first = WireFaultPlan::RandomPair(1, 8);
  for (uint64_t seed = 2; seed <= 16 && !any_differ; ++seed) {
    any_differ = WireFaultPlan::RandomPair(seed, 8) != first;
  }
  EXPECT_TRUE(any_differ);
}

TEST(WireFaultPlanTest, DebugStringReplaysFromSeed) {
  auto build = [](uint64_t seed) {
    WireFaultPlan plan;
    plan.AddRandomPartition(seed, /*world=*/8, /*from_op=*/7,
                            /*heal_after_hits=*/3);
    plan.ResetConnection(0, 1, /*at_op=*/2);
    plan.TruncateSend(2, 3, /*at_op=*/4, /*after_bytes=*/128);
    plan.SlowLink(4, 5, /*latency_seconds=*/0.001,
                  /*bytes_per_second=*/1e6);
    plan.FlakyAccept(6, /*fail_count=*/2);
    return plan.DebugString();
  };
  EXPECT_EQ(build(42), build(42));
  EXPECT_FALSE(build(42).empty());
}

TEST(WireFaultPlanTest, QueriesAreDirectional) {
  WireFaultPlan plan;
  plan.PartitionOneWay(0, 1, /*from_op=*/0);
  EXPECT_NE(plan.FindPartition(0, 1), nullptr);
  EXPECT_EQ(plan.FindPartition(1, 0), nullptr);

  WireFaultPlan both;
  both.PartitionTwoWay(2, 3, /*from_op=*/5);
  EXPECT_NE(both.FindPartition(2, 3), nullptr);
  EXPECT_NE(both.FindPartition(3, 2), nullptr);
  EXPECT_EQ(both.FindPartition(2, 3)->from_op, 5u);
}

TEST(WireFaultInjectorTest, NullPlanIsTransparent) {
  SocketPair pair;
  WireFaultInjector shim(nullptr, /*self_rank=*/0);
  const char msg[] = "hello";
  ASSERT_TRUE(shim.SendAll(1, pair.fds[0], msg, sizeof(msg),
                           Deadline::After(1.0))
                  .ok());
  char got[sizeof(msg)] = {};
  ASSERT_TRUE(
      RecvAll(pair.fds[1], got, sizeof(got), Deadline::After(1.0)).ok());
  EXPECT_STREQ(got, "hello");
  EXPECT_EQ(shim.faults_injected(), 0u);
}

TEST(WireFaultInjectorTest, PartitionBlackholesSendWithTypedTimeout) {
  WireFaultPlan plan;
  plan.PartitionOneWay(0, 1, /*from_op=*/0);
  plan.blackhole_cap_seconds = 0.05;
  SocketPair pair;
  WireFaultInjector shim(&plan, /*self_rank=*/0);
  const char msg[] = "x";
  const Status status =
      shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(5.0));
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_NE(status.message().find("injected partition"), std::string::npos);
  EXPECT_EQ(shim.link_hits(1), 1u);
  // Nothing reached the wire.
  char buf = 0;
  // A raw nonblocking peek — no net_socket helper can prove absence.
  EXPECT_EQ(recv(pair.fds[1], &buf, 1, MSG_DONTWAIT), -1);  // ddplint: allow(raw-wire-io) reason: peek for absence of bytes
}

TEST(WireFaultInjectorTest, OneWayPartitionIsAsymmetric) {
  WireFaultPlan plan;
  plan.PartitionOneWay(0, 1, /*from_op=*/0);
  plan.blackhole_cap_seconds = 0.02;
  SocketPair pair;
  WireFaultInjector rank0(&plan, 0);
  WireFaultInjector rank1(&plan, 1);
  const char msg[] = "y";
  // 0 -> 1 is dead...
  EXPECT_EQ(rank0.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0))
                .code(),
            StatusCode::kTimedOut);
  // ...while 1 -> 0 flows (same plan, opposite direction).
  ASSERT_TRUE(
      rank1.SendAll(0, pair.fds[1], msg, 1, Deadline::After(1.0)).ok());
  char got = 0;
  ASSERT_TRUE(RecvAll(pair.fds[0], &got, 1, Deadline::After(1.0)).ok());
  EXPECT_EQ(got, 'y');
}

TEST(WireFaultInjectorTest, PartitionHealsAfterHitBudget) {
  WireFaultPlan plan;
  plan.PartitionTwoWay(0, 1, /*from_op=*/0, /*heal_after_hits=*/2);
  plan.blackhole_cap_seconds = 0.01;
  SocketPair pair;
  WireFaultInjector shim(&plan, 0);
  const char msg[] = "z";
  for (int hit = 0; hit < 2; ++hit) {
    EXPECT_EQ(shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0))
                  .code(),
              StatusCode::kTimedOut);
  }
  EXPECT_EQ(shim.link_hits(1), 2u);
  // Third op: the link has healed, bytes flow.
  ASSERT_TRUE(
      shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0)).ok());
  char got = 0;
  ASSERT_TRUE(RecvAll(pair.fds[1], &got, 1, Deadline::After(1.0)).ok());
  EXPECT_EQ(got, 'z');
}

TEST(WireFaultInjectorTest, PartitionActivationIsOpGatedAndSticky) {
  WireFaultPlan plan;
  plan.PartitionOneWay(0, 1, /*from_op=*/5);
  plan.blackhole_cap_seconds = 0.01;
  SocketPair pair;
  WireFaultInjector shim(&plan, 0);
  const char msg[] = "a";
  shim.set_op_index(4);
  ASSERT_TRUE(
      shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0)).ok());
  shim.set_op_index(5);
  EXPECT_EQ(
      shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0)).code(),
      StatusCode::kTimedOut);
  // Sticky across a sequence reset (a regrouped generation restarts seq
  // numbering at 0, the partition must keep biting).
  shim.set_op_index(0);
  EXPECT_EQ(
      shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0)).code(),
      StatusCode::kTimedOut);
}

TEST(WireFaultInjectorTest, HeartbeatSeesPartitionButNeverCountsHits) {
  WireFaultPlan plan;
  plan.PartitionOneWay(0, 1, /*from_op=*/0, /*heal_after_hits=*/1);
  plan.blackhole_cap_seconds = 0.01;
  SocketPair pair;
  WireFaultInjector shim(&plan, 0);
  const char ping = 'h';
  for (int probe = 0; probe < 5; ++probe) {
    EXPECT_EQ(
        shim.Heartbeat(1, pair.fds[0], &ping, 1, Deadline::After(0.1))
            .code(),
        StatusCode::kTimedOut);
  }
  // Five probes, zero hits: the heal clock only advances on data-plane
  // and connect traffic.
  EXPECT_EQ(shim.link_hits(1), 0u);
  EXPECT_TRUE(shim.SendPartitioned(1));
}

TEST(WireFaultInjectorTest, ResetInjectsPeerVisibleEof) {
  WireFaultPlan plan;
  plan.ResetConnection(0, 1, /*at_op=*/0);
  SocketPair pair;
  WireFaultInjector shim(&plan, 0);
  const char msg[] = "b";
  const Status status =
      shim.SendAll(1, pair.fds[0], msg, 1, Deadline::After(1.0));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("injected connection reset"),
            std::string::npos);
  // The peer observes the torn stream as a typed mid-message close.
  char buf[4] = {};
  const Status peer =
      RecvAll(pair.fds[1], buf, sizeof(buf), Deadline::After(1.0));
  EXPECT_EQ(peer.code(), StatusCode::kInternal);
  EXPECT_NE(peer.message().find("peer closed connection mid-message"),
            std::string::npos);
  // One-shot: a later op on a fresh connection is clean.
  SocketPair fresh;
  shim.set_op_index(1);
  EXPECT_TRUE(
      shim.SendAll(1, fresh.fds[0], msg, 1, Deadline::After(1.0)).ok());
}

TEST(WireFaultInjectorTest, TruncationCutsMidFrame) {
  WireFaultPlan plan;
  plan.TruncateSend(0, 1, /*at_op=*/0, /*after_bytes=*/3);
  SocketPair pair;
  WireFaultInjector shim(&plan, 0);
  const std::string payload(64, 'q');
  const Status status = shim.SendAll(1, pair.fds[0], payload.data(),
                                     payload.size(), Deadline::After(1.0));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("injected mid-frame truncation"),
            std::string::npos);
  // The first 3 bytes went out for real, then the stream was cut: the
  // peer's read of the whole message fails typed, mid-message.
  std::string got(payload.size(), 0);
  const Status read =
      RecvAll(pair.fds[1], got.data(), got.size(), Deadline::After(1.0));
  EXPECT_EQ(read.code(), StatusCode::kInternal);
  EXPECT_NE(read.message().find("peer closed connection mid-message"),
            std::string::npos);
  EXPECT_NE(read.message().find("(3/64 bytes)"), std::string::npos)
      << read.ToString();
}

TEST(WireFaultInjectorTest, SlowLinkDelaysButDeliversIntact) {
  WireFaultPlan plan;
  plan.SlowLink(0, 1, /*latency_seconds=*/0.05, /*bytes_per_second=*/0.0);
  SocketPair pair;
  WireFaultInjector shim(&plan, 0);
  const std::string payload = "throttled payload";
  const double start = WallSeconds();
  ASSERT_TRUE(shim.SendAll(1, pair.fds[0], payload.data(), payload.size(),
                           Deadline::After(5.0))
                  .ok());
  EXPECT_GE(WallSeconds() - start, 0.04);
  std::string got(payload.size(), 0);
  ASSERT_TRUE(
      RecvAll(pair.fds[1], got.data(), got.size(), Deadline::After(1.0))
          .ok());
  EXPECT_EQ(got, payload);
}

TEST(WireFaultInjectorTest, FlakyAcceptFailsExactlyNTimes) {
  WireFaultPlan plan;
  plan.FlakyAccept(/*rank=*/0, /*fail_count=*/2);
  WireFaultInjector shim(&plan, 0);

  Result<int> listen_fd = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listen_fd.ok());
  Result<int> port = ListenPort(listen_fd.value());
  ASSERT_TRUE(port.ok());

  for (int failure = 0; failure < 2; ++failure) {
    Result<int> fd =
        shim.AcceptWithDeadline(listen_fd.value(), Deadline::After(0.5));
    ASSERT_FALSE(fd.ok());
    EXPECT_EQ(fd.status().code(), StatusCode::kInternal);
    EXPECT_NE(fd.status().message().find("injected flaky accept"),
              std::string::npos);
  }
  // Budget exhausted: a real connection goes through.
  std::thread connector([&] {
    Result<int> fd = ConnectWithDeadline("127.0.0.1", port.value(),
                                         Deadline::After(2.0));
    EXPECT_TRUE(fd.ok());
    if (fd.ok()) CloseFd(fd.value());
  });
  Result<int> fd =
      shim.AcceptWithDeadline(listen_fd.value(), Deadline::After(2.0));
  EXPECT_TRUE(fd.ok());
  if (fd.ok()) CloseFd(fd.value());
  connector.join();
  CloseFd(listen_fd.value());
  EXPECT_EQ(shim.faults_injected(), 2u);
}

TEST(WireFaultInjectorTest, ConnectConsultsBothDirections) {
  // A partition dst -> src alone must still kill src's connect: the
  // SYN-ACK can't come back.
  WireFaultPlan plan;
  plan.PartitionOneWay(1, 0, /*from_op=*/0);
  plan.blackhole_cap_seconds = 0.02;
  WireFaultInjector shim(&plan, /*self_rank=*/0);
  const Result<int> fd =
      shim.ConnectWithDeadline(1, "127.0.0.1", 1, Deadline::After(1.0));
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kTimedOut);
  EXPECT_NE(fd.status().message().find("injected partition"),
            std::string::npos);
  EXPECT_EQ(shim.link_hits(1), 1u);
}

// --- --chaos spec parsing --------------------------------------------------

TEST(ChaosSpecTest, PartitionWithHealClause) {
  // step 5 on the standard 4-broadcast harness is op 9; heal after 3 hits.
  Result<WireFaultPlan> plan = ParseWireChaosSpec(
      "partition:2x3@step5,heal@step8", /*seed=*/1, /*world=*/4);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  const auto* forward = plan.value().FindPartition(2, 3);
  const auto* backward = plan.value().FindPartition(3, 2);
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(backward, nullptr);
  EXPECT_EQ(forward->from_op, 9u);
  EXPECT_EQ(forward->heal_after_hits, 3u);
  EXPECT_EQ(backward->heal_after_hits, 3u);
}

TEST(ChaosSpecTest, OneWayAndRandomLinks) {
  Result<WireFaultPlan> one_way =
      ParseWireChaosSpec("partition:0>1@step2", 1, 4);
  ASSERT_TRUE(one_way.ok());
  EXPECT_NE(one_way.value().FindPartition(0, 1), nullptr);
  EXPECT_EQ(one_way.value().FindPartition(1, 0), nullptr);

  const auto pair = WireFaultPlan::RandomPair(/*seed=*/7, /*world=*/8);
  Result<WireFaultPlan> random =
      ParseWireChaosSpec("partition:rand@step0", /*seed=*/7, /*world=*/8);
  ASSERT_TRUE(random.ok());
  EXPECT_NE(random.value().FindPartition(pair.first, pair.second), nullptr);
  EXPECT_NE(random.value().FindPartition(pair.second, pair.first), nullptr);
}

TEST(ChaosSpecTest, EveryFaultKindParses) {
  Result<WireFaultPlan> plan = ParseWireChaosSpec(
      "reset:0x1@step1,truncate:2>3@step2:128,slow:1x2:5:1000000,"
      "flaky-accept:3:2",
      1, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_NE(plan.value().FindReset(0, 1), nullptr);
  EXPECT_NE(plan.value().FindReset(1, 0), nullptr);
  ASSERT_NE(plan.value().FindTruncation(2, 3), nullptr);
  EXPECT_EQ(plan.value().FindTruncation(2, 3)->after_bytes, 128u);
  EXPECT_EQ(plan.value().FindTruncation(3, 2), nullptr);  // one-way
  ASSERT_NE(plan.value().FindThrottle(1, 2), nullptr);
  EXPECT_NEAR(plan.value().FindThrottle(1, 2)->latency_seconds, 0.005,
              1e-12);
  EXPECT_EQ(plan.value().FindThrottle(1, 2)->bytes_per_second, 1000000.0);
  EXPECT_NE(plan.value().FindThrottle(2, 1), nullptr);
  EXPECT_EQ(plan.value().AcceptFailures(3), 2);
}

TEST(ChaosSpecTest, MalformedSpecsFailTyped) {
  const char* bad[] = {
      "",                          // empty
      "partition:2x3",             // missing @step
      "partition:2x9@step1",      // rank out of range for world 4
      "partition:2x2@step1",      // self link
      "heal@step3",                // heal with no partition before it
      "partition:0x1@step5,heal@step5",  // heal not after partition
      "truncate:0>1@step1",        // missing byte count
      "flaky-accept:1",            // missing count
      "warp:0x1@step1",            // unknown kind
  };
  for (const char* spec : bad) {
    Result<WireFaultPlan> plan = ParseWireChaosSpec(spec, 1, 4);
    EXPECT_FALSE(plan.ok()) << "accepted: \"" << spec << "\"";
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ChaosSpecTest, SameSeedSameCanonicalPlan) {
  const std::string spec = "partition:rand@step1,heal@step4";
  Result<WireFaultPlan> a = ParseWireChaosSpec(spec, 3, 8);
  Result<WireFaultPlan> b = ParseWireChaosSpec(spec, 3, 8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().DebugString(), b.value().DebugString());
}

// --- net_socket audit regressions -----------------------------------------

TEST(NetSocketAuditTest, RecvAllTypesPeerResetMidFrame) {
  SocketPair pair;
  // Half a message, then a hard close.
  const char partial[] = {1, 2, 3};
  ASSERT_TRUE(SendAll(pair.fds[0], partial, sizeof(partial),
                      Deadline::After(1.0))
                  .ok());
  CloseFd(pair.fds[0]);
  pair.fds[0] = -1;
  char buf[8] = {};
  const Status status =
      RecvAll(pair.fds[1], buf, sizeof(buf), Deadline::After(1.0));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("peer closed connection mid-message"),
            std::string::npos);
  EXPECT_NE(status.message().find("3/8"), std::string::npos);
}

TEST(NetSocketAuditTest, SendAllTypesPeerResetMidWrite) {
  SocketPair pair;
  // Close the read side entirely; a large enough write must fail typed
  // (EPIPE surfaces as kInternal, never a SIGPIPE crash — MSG_NOSIGNAL).
  CloseFd(pair.fds[1]);
  pair.fds[1] = -1;
  std::vector<char> big(1 << 20, 'w');
  const Status status = SendAll(pair.fds[0], big.data(), big.size(),
                                Deadline::After(1.0));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(NetSocketAuditTest, RecvFrameRejectsTruncatedPayloadTyped) {
  SocketPair pair;
  // A frame header promising 100 bytes followed by only 10.
  const uint32_t size = 100;
  ASSERT_TRUE(
      SendAll(pair.fds[0], &size, sizeof(size), Deadline::After(1.0)).ok());
  const char partial[10] = {};
  ASSERT_TRUE(SendAll(pair.fds[0], partial, sizeof(partial),
                      Deadline::After(1.0))
                  .ok());
  CloseFd(pair.fds[0]);
  pair.fds[0] = -1;
  Result<std::vector<uint8_t>> frame =
      RecvFrame(pair.fds[1], Deadline::After(1.0));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInternal);
  EXPECT_NE(
      frame.status().message().find("peer closed connection mid-message"),
      std::string::npos);
}

}  // namespace
}  // namespace ddpkit::comm
