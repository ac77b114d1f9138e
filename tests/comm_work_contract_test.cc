// Contract tests for Work's terminal-state machine and the process group's
// invalid-argument failure path, pinning two fixes the thread-safety
// annotation pass surfaced:
//
//  1. First terminal state wins: a watchdog's MarkFailed racing the last
//     participant's MarkCompleted used to abort the process
//     (DDPKIT_CHECK(!done_)); now the later verdict is a no-op and the
//     first one stands, from any interleaving.
//
//  2. Collective entry points never abort on bad arguments: an undefined
//     tensor or an out-of-range root yields a handle pre-failed with
//     kFailedPrecondition that consumes NO sequence number, so a subsequent
//     valid collective still pairs correctly with the peers.
//
// A Work carries one Status: Wait and status() return it as MarkFailed
// stored it.

#include "comm/work.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/sim_world.h"
#include "sim/virtual_clock.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {
namespace {

TEST(WorkContractTest, FailedThenCompletedStaysFailed) {
  Work work;
  work.MarkFailed(Status::TimedOut("rank 2 never arrived"), 3.0);
  // The racing completion must be swallowed, not abort the process.
  work.MarkCompleted(5.0);
  EXPECT_TRUE(work.Poll());
  EXPECT_FALSE(work.IsCompleted());
  EXPECT_EQ(work.status().code(), StatusCode::kTimedOut);
  EXPECT_EQ(work.status().message(), "rank 2 never arrived");
  EXPECT_DOUBLE_EQ(work.completion_time(), 3.0);
}

TEST(WorkContractTest, CompletedThenFailedStaysCompleted) {
  Work work;
  work.MarkCompleted(2.0);
  work.MarkFailed(Status::Internal("late watchdog verdict"), 4.0);
  EXPECT_TRUE(work.Poll());
  EXPECT_TRUE(work.IsCompleted());
  EXPECT_TRUE(work.status().ok());
  EXPECT_DOUBLE_EQ(work.completion_time(), 2.0);
}

TEST(WorkContractTest, WaitSurfacesFailureAsStatus) {
  Work work;
  work.MarkFailed(Status::FailedPrecondition("divergent collective"), 1.5);
  sim::VirtualClock clock;
  const Status st = work.Wait(&clock, /*timeout_seconds=*/10.0);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.message(), "divergent collective");
  EXPECT_DOUBLE_EQ(clock.Now(), 1.5);
}

// Many detectors and one completer race to terminate the same work; the
// exercise is that no interleaving aborts and exactly one verdict sticks.
// Under the TSan CI leg this also vets the Work mutex discipline.
TEST(WorkContractTest, ConcurrentTerminalRaceYieldsOneVerdict) {
  for (int round = 0; round < 50; ++round) {
    Work work;
    std::vector<std::thread> threads;
    threads.emplace_back([&] { work.MarkCompleted(1.0); });
    for (int d = 0; d < 3; ++d) {
      threads.emplace_back([&work, d] {
        work.MarkFailed(Status::TimedOut("watchdog " + std::to_string(d)),
                        2.0 + d);
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_TRUE(work.Poll());
    if (work.IsCompleted()) {
      EXPECT_TRUE(work.status().ok());
      EXPECT_DOUBLE_EQ(work.completion_time(), 1.0);
    } else {
      EXPECT_EQ(work.status().code(), StatusCode::kTimedOut);
      EXPECT_GE(work.completion_time(), 2.0);
    }
  }
}

TEST(WorkContractTest, InvalidArgumentsYieldPreFailedHandle) {
  SimWorld::Run(2, [](SimWorld::RankContext& ctx) {
    // Undefined tensor: immediately-failed handle, no abort.
    Tensor undefined;
    WorkHandle bad = ctx.process_group->AllReduce(undefined, ReduceOp::kSum);
    ASSERT_NE(bad, nullptr);
    EXPECT_TRUE(bad->Poll());
    EXPECT_FALSE(bad->IsCompleted());
    EXPECT_EQ(bad->status().code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(bad->status().ok());

    // Out-of-range root on broadcast: same contract.
    Tensor t = Tensor::Full({4}, static_cast<float>(ctx.rank + 1));
    WorkHandle bad_root = ctx.process_group->Broadcast(t, /*root=*/7);
    ASSERT_NE(bad_root, nullptr);
    EXPECT_TRUE(bad_root->Poll());
    EXPECT_EQ(bad_root->status().code(), StatusCode::kFailedPrecondition);
  });
}

// The invalid call must consume no sequence number: rank 0 issues one
// rejected collective that rank 1 never issues, then both ranks run a
// valid AllReduce — which must still pair up and produce the correct sum
// instead of deadlocking or mixing sequences.
TEST(WorkContractTest, PreFailedWorkConsumesNoSequenceNumber) {
  SimWorld::Run(2, [](SimWorld::RankContext& ctx) {
    if (ctx.rank == 0) {
      Tensor undefined;
      WorkHandle bad = ctx.process_group->AllReduce(undefined, ReduceOp::kSum);
      ASSERT_TRUE(bad->Poll());
      ASSERT_FALSE(bad->status().ok());
    }
    Tensor t = Tensor::Full({3}, static_cast<float>(ctx.rank + 1));
    WorkHandle ok = ctx.process_group->AllReduce(t, ReduceOp::kSum);
    ASSERT_NE(ok, nullptr);
    const Status st = ok->Wait(ctx.clock, /*timeout_seconds=*/30.0);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_DOUBLE_EQ(t.FlatAt(i), 3.0);  // 1 + 2 from the two ranks
    }
  });
}

}  // namespace
}  // namespace ddpkit::comm
