// Elastic-recovery rendezvous protocol (DESIGN.md §9): generation-stamped
// regroup over the survivors, typed failures for lone survivors and sealed-
// out stragglers, generation gating of old-group collectives, and Store key
// hygiene across repeated recoveries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault_plan.h"
#include "comm/process_group_sim.h"
#include "comm/rendezvous.h"
#include "comm/sim_world.h"
#include "comm/store.h"
#include "tests/run_within.h"

namespace ddpkit::comm {
namespace {

using testing_util::RunWithin;

// ---------------------------------------------------------------------------
// Membership payload plumbing
// ---------------------------------------------------------------------------

TEST(RendezvousMembersTest, SerializeParseRoundTrip) {
  const std::vector<int> members = {0, 2, 5, 7};
  std::vector<int> parsed;
  ASSERT_TRUE(ParseMembers(SerializeMembers(members), /*old_world=*/8,
                           &parsed));
  EXPECT_EQ(parsed, members);
}

TEST(RendezvousMembersTest, ParseRejectsMalformedPayloads) {
  std::vector<int> parsed;
  // Untrusted Store bytes: every structural defect must parse-fail, never
  // throw or yield a bogus membership.
  EXPECT_FALSE(ParseMembers("", 8, &parsed));
  EXPECT_FALSE(ParseMembers("abc", 8, &parsed));
  EXPECT_FALSE(ParseMembers("2:0", 8, &parsed));        // count mismatch
  EXPECT_FALSE(ParseMembers("1:0:1", 8, &parsed));      // count mismatch
  EXPECT_FALSE(ParseMembers("2:1:0", 8, &parsed));      // not ascending
  EXPECT_FALSE(ParseMembers("2:0:0", 8, &parsed));      // duplicate
  EXPECT_FALSE(ParseMembers("2:0:8", 8, &parsed));      // out of range
  EXPECT_FALSE(ParseMembers("2:-1:0", 8, &parsed));     // negative
  EXPECT_FALSE(ParseMembers("0:", 8, &parsed));         // empty membership
  EXPECT_FALSE(ParseMembers("2:0x1:2", 8, &parsed));    // junk field
}

// ---------------------------------------------------------------------------
// The rendezvous protocol
// ---------------------------------------------------------------------------

RendezvousOptions FastOptions(double timeout = 2.0, int min_world = 2) {
  RendezvousOptions options;
  options.timeout_seconds = timeout;
  options.min_world = min_world;
  return options;
}

TEST(RendezvousTest, FullMembershipKeepsRanksAndBumpsGeneration) {
  Store store;
  constexpr int kWorld = 4;
  std::vector<Result<RendezvousResult>> results;
  results.reserve(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    results.push_back(Result<RendezvousResult>(Status::Internal("unset")));
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      results[static_cast<size_t>(r)] = AbortAndRendezvous(
          &store, "full", r, kWorld, /*from_generation=*/0, FastOptions());
    });
  }
  for (auto& t : threads) t.join();

  for (int r = 0; r < kWorld; ++r) {
    const auto& got = results[static_cast<size_t>(r)];
    ASSERT_TRUE(got.ok()) << "rank " << r << ": " << got.status().ToString();
    const RendezvousResult& rr = got.value();
    EXPECT_EQ(rr.generation, 1u);
    EXPECT_EQ(rr.new_rank, r);  // nobody died: dense ranks are unchanged
    EXPECT_EQ(rr.new_world, kWorld);
    EXPECT_EQ(rr.survivors, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(rr.source_old_rank, 0);
  }
}

TEST(RendezvousTest, ShrinkRenumbersSurvivorsDensely) {
  Store store;
  constexpr int kWorld = 4;
  // Rank 2 is dead: it never joins. Survivors wait out the short barrier,
  // seal {0, 1, 3}, and renumber densely.
  std::vector<Result<RendezvousResult>> results;
  for (int r = 0; r < kWorld; ++r) {
    results.push_back(Result<RendezvousResult>(Status::Internal("unset")));
  }
  std::vector<std::thread> threads;
  for (int r : {0, 1, 3}) {
    threads.emplace_back([&, r] {
      results[static_cast<size_t>(r)] =
          AbortAndRendezvous(&store, "shrink", r, kWorld,
                             /*from_generation=*/0, FastOptions(0.4));
    });
  }
  for (auto& t : threads) t.join();

  const std::vector<int> expect_new_rank = {0, 1, -1, 2};
  for (int r : {0, 1, 3}) {
    const auto& got = results[static_cast<size_t>(r)];
    ASSERT_TRUE(got.ok()) << "rank " << r << ": " << got.status().ToString();
    const RendezvousResult& rr = got.value();
    EXPECT_EQ(rr.generation, 1u);
    EXPECT_EQ(rr.new_world, 3);
    EXPECT_EQ(rr.survivors, (std::vector<int>{0, 1, 3}));
    EXPECT_EQ(rr.new_rank, expect_new_rank[static_cast<size_t>(r)]);
    EXPECT_EQ(rr.source_old_rank, 0);
  }
}

TEST(RendezvousTest, LoneSurvivorGetsTypedTimeoutNotAHang) {
  Store store;
  // ddplint: allow(banned-nondeterminism) the rendezvous timeout is real
  // time by design, so only a wall clock can show it was honored.
  const auto start = std::chrono::steady_clock::now();
  auto got = AbortAndRendezvous(&store, "lone", /*old_rank=*/0,
                                /*old_world=*/2, /*from_generation=*/0,
                                FastOptions(0.3));
  const double elapsed =
      // ddplint: allow(banned-nondeterminism) the same wall-clock bound.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTimedOut)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find("survivor"), std::string::npos)
      << got.status().message();
  // Bounded: roughly the barrier budget plus the members wait, nowhere
  // near a hang.
  EXPECT_LT(elapsed, 5.0);
}

TEST(RendezvousTest, MinWorldOneAllowsSoloRegroup) {
  Store store;
  auto got = AbortAndRendezvous(&store, "solo", /*old_rank=*/1,
                                /*old_world=*/2, /*from_generation=*/0,
                                FastOptions(0.3, /*min_world=*/1));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().new_rank, 0);
  EXPECT_EQ(got.value().new_world, 1);
  EXPECT_EQ(got.value().survivors, std::vector<int>{1});
  EXPECT_EQ(got.value().source_old_rank, 1);
}

TEST(RendezvousTest, SealedOutStragglerGetsTypedTimeout) {
  Store store;
  constexpr int kWorld = 3;
  std::vector<Result<RendezvousResult>> results;
  for (int r = 0; r < kWorld; ++r) {
    results.push_back(Result<RendezvousResult>(Status::Internal("unset")));
  }
  std::vector<std::thread> threads;
  // Ranks 0 and 1 rendezvous promptly with a short barrier; rank 2 shows
  // up only after the membership is guaranteed sealed without it.
  for (int r : {0, 1}) {
    threads.emplace_back([&, r] {
      results[static_cast<size_t>(r)] =
          AbortAndRendezvous(&store, "straggle", r, kWorld,
                             /*from_generation=*/0, FastOptions(0.3));
    });
  }
  threads.emplace_back([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    results[2] = AbortAndRendezvous(&store, "straggle", 2, kWorld,
                                    /*from_generation=*/0, FastOptions(0.3));
  });
  for (auto& t : threads) t.join();

  for (int r : {0, 1}) {
    ASSERT_TRUE(results[static_cast<size_t>(r)].ok())
        << results[static_cast<size_t>(r)].status().ToString();
    EXPECT_EQ(results[static_cast<size_t>(r)].value().new_world, 2);
  }
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kTimedOut)
      << results[2].status().ToString();
}

/// A store server that dies right after the join barrier's deadline: the
/// first lookup that misses is answered, and every primitive after it fails
/// like a dropped connection.
class StoreDyingAfterFirstMiss : public Store {
 protected:
  Status DoSet(const std::string& key, const std::string& value) override {
    if (dead_) return Dead();
    return Store::DoSet(key, value);
  }
  Result<int64_t> DoAdd(const std::string& key, int64_t delta) override {
    if (dead_) return Dead();
    return Store::DoAdd(key, delta);
  }
  Result<std::string> DoGetBounded(const std::string& key,
                                   double timeout_seconds) override {
    if (dead_) return Dead();
    Result<std::string> got = Store::DoGetBounded(key, timeout_seconds);
    if (got.status().code() == StatusCode::kTimedOut) dead_ = true;
    return got;
  }
  Result<int64_t> DoNumKeys() override {
    if (dead_) return Dead();
    return Store::DoNumKeys();
  }
  Result<int64_t> DoDeletePrefix(const std::string& prefix) override {
    if (dead_) return Dead();
    return Store::DoDeletePrefix(prefix);
  }

 private:
  static Status Dead() { return Status::Internal("store server is gone"); }
  std::atomic<bool> dead_{false};
};

TEST(RendezvousTest, StoreDyingAfterTheBarrierFailsTypedNotAHang) {
  // Ranks 1 and 2 never join. Rank 0's wait on rank 1 uses up the barrier,
  // the store dies, and the snapshot of rank 2 past the deadline must fail
  // within the attempt budget like every other Store op.
  StoreDyingAfterFirstMiss store;
  RunWithin(5.0, [&] {
    Result<RendezvousResult> got =
        AbortAndRendezvous(&store, "dying", /*old_rank=*/0, /*old_world=*/3,
                           /*from_generation=*/0, FastOptions(0.2));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInternal)
        << got.status().ToString();
    EXPECT_NE(got.status().message().find("join barrier"), std::string::npos)
        << got.status().message();
  });
}

TEST(RendezvousTest, NullStoreAndBadArgsAreInvalid) {
  Store store;
  EXPECT_EQ(AbortAndRendezvous(nullptr, "ns", 0, 2, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AbortAndRendezvous(&store, "ns", -1, 2, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AbortAndRendezvous(&store, "ns", 2, 2, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Key hygiene: each round's keys are deleted once the regroup completes
// ---------------------------------------------------------------------------

TEST(RendezvousTest, CleanupDeletesTheGenerationsKeys) {
  Store store;
  std::thread peer([&] {
    auto got = AbortAndRendezvous(&store, "gc", 1, 2, 0, FastOptions());
    EXPECT_TRUE(got.ok()) << got.status().ToString();
  });
  auto got = AbortAndRendezvous(&store, "gc", 0, 2, 0, FastOptions());
  peer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_GT(store.NumKeys(), 0u);  // join/seal/members keys exist
  EXPECT_TRUE(CleanupRendezvous(&store, "gc", got.value().generation).ok());
  EXPECT_EQ(store.NumKeys(), 0u);
}

TEST(RendezvousTest, KeyCountStaysBoundedAcrossManyGenerations) {
  // Satellite invariant: 100 recovery epochs leak nothing — every round
  // cleans the previous state, so the Store's key count is bounded by one
  // in-flight round, not by the recovery count.
  Store store;
  size_t peak = 0;
  for (uint64_t gen = 0; gen < 100; ++gen) {
    Result<RendezvousResult> a(Status::Internal("unset"));
    std::thread peer([&] {
      a = AbortAndRendezvous(&store, "epochs", 1, 2, gen, FastOptions());
    });
    auto b = AbortAndRendezvous(&store, "epochs", 0, 2, gen, FastOptions());
    peer.join();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    peak = std::max(peak, store.NumKeys());
    ASSERT_TRUE(
        CleanupRendezvous(&store, "epochs", b.value().generation).ok());
    ASSERT_LE(store.NumKeys(), 0u) << "generation " << gen << " leaked keys";
  }
  // One round in flight: 2 join keys + seal + members.
  EXPECT_LE(peak, 4u);
}

// ---------------------------------------------------------------------------
// Generation gating on the process group
// ---------------------------------------------------------------------------

TEST(GenerationGateTest, AbortFailsInflightAndSubsequentCollectives) {
  // Rank 0 contributes to an AllReduce rank 1 never joins, so the work is
  // genuinely in flight; rank 1 then retires the group. The abort must
  // fail the pending work AND every later contribution, typed
  // kInvalidGeneration — the old-generation straggler can never hang.
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    EXPECT_EQ(ctx.process_group->generation(), 0u);
    if (ctx.rank != 0) {
      // Retire the group only once rank 0's contribution is registered —
      // this exercises the inflight-drain path, not the issue-time gate.
      (void)ctx.store->Get("gate/issued");
      ctx.process_group->AbortGroup(1, "test retirement");
      EXPECT_EQ(ctx.process_group->superseded_by(), 1u);
      return;
    }
    Tensor pending = Tensor::Full({8}, 1.0);
    WorkHandle work = ctx.process_group->AllReduce(pending);
    EXPECT_FALSE(work->Poll());  // short one participant: still in flight
    ctx.store->Set("gate/issued", "1");

    // Blocks until the abort fails the work — typed, no watchdog needed.
    Status st = work->Wait(ctx.clock, 1000.0);
    ASSERT_EQ(st.code(), StatusCode::kInvalidGeneration) << st.ToString();
    EXPECT_EQ(work->status().code(), StatusCode::kInvalidGeneration);
    EXPECT_NE(st.message().find("superseded by generation 1"),
              std::string::npos)
        << st.message();

    // Straggler shape: a collective issued after retirement fails fast at
    // registration, it does not wait out any watchdog.
    Tensor late = Tensor::Full({8}, 1.0);
    WorkHandle straggler = ctx.process_group->AllReduce(late);
    EXPECT_TRUE(straggler->Poll());
    Status late_st = straggler->Wait(ctx.clock, 5.0);
    EXPECT_EQ(late_st.code(), StatusCode::kInvalidGeneration)
        << late_st.ToString();
    EXPECT_EQ(ctx.process_group->superseded_by(), 1u);
  });
}

TEST(GenerationGateTest, RegroupedGenerationRunsCleanAfterAbort) {
  // Survivor-side happy path: retire generation 0, re-form through the
  // SimWorld factory at generation 1 (full membership here), and verify
  // the new group both carries the stamp and reduces correctly.
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Tensor warm = Tensor::Full({4}, 1.0);
    ASSERT_TRUE(
        ctx.process_group->AllReduce(warm)->Wait(ctx.clock, 30.0).ok());

    ctx.process_group->AbortGroup(1, "regroup test");
    std::shared_ptr<ProcessGroup> next =
        ctx.make_group(/*generation=*/1, ctx.rank, ctx.world);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(next->generation(), 1u);
    EXPECT_EQ(next->superseded_by(), 0u);

    Tensor t = Tensor::Full({8}, ctx.rank + 1.0);
    Status st = next->AllReduce(t)->Wait(next->clock(), 30.0);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_DOUBLE_EQ(t.FlatAt(0), 3.0);
  });
}

}  // namespace
}  // namespace ddpkit::comm
