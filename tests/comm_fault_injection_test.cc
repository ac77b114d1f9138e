#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/fault_plan.h"
#include "comm/round_robin_process_group.h"
#include "comm/sim_world.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "nn/zoo.h"
#include "tensor/tensor_ops.h"
#include "tests/wait_ok.h"

namespace ddpkit::comm {
namespace {

using core::DdpOptions;
using core::DistributedDataParallel;

/// Restores the global pool size after a test that resizes it.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : previous_(ThreadPool::Global().num_threads()) {}
  ~PoolSizeGuard() { ThreadPool::SetNumThreads(previous_); }

 private:
  int previous_;
};

// ---------------------------------------------------------------------------
// FaultPlan bookkeeping
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, QueriesReflectSchedule) {
  FaultPlan plan;
  plan.StallRank(1, 3, 2.5);
  plan.DelayCompletion(0, 4, 1.0);
  plan.DelayCompletion(2, 4, 3.0);  // max across ranks applies
  plan.DropRank(2, 5);
  plan.CrashRank(3, 7);

  EXPECT_DOUBLE_EQ(plan.StallSeconds(1, 3), 2.5);
  EXPECT_DOUBLE_EQ(plan.StallSeconds(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(plan.CompletionDelaySeconds(4), 3.0);
  EXPECT_DOUBLE_EQ(plan.CompletionDelaySeconds(3), 0.0);

  EXPECT_FALSE(plan.IsAbsent(2, 4));
  EXPECT_TRUE(plan.IsAbsent(2, 5));
  EXPECT_TRUE(plan.IsAbsent(2, 9));
  EXPECT_FALSE(plan.IsCrashed(2, 9));  // dropped, not crashed

  EXPECT_FALSE(plan.IsAbsent(3, 6));
  EXPECT_TRUE(plan.IsAbsent(3, 7));
  EXPECT_TRUE(plan.IsCrashed(3, 7));
  EXPECT_TRUE(plan.HasCrash(3));
  EXPECT_EQ(plan.CrashSeq(3), 7u);

  EXPECT_EQ(plan.AbsentRanks(7, 4), (std::vector<int>{2, 3}));
  EXPECT_EQ(plan.AbsentRanks(4, 4), std::vector<int>{});
  EXPECT_NE(plan.AbsenceReason(3, 7).find("crashed"), std::string::npos);
  EXPECT_NE(plan.AbsenceReason(2, 5).find("dropped"), std::string::npos);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan().empty());
}

TEST(FaultPlanTest, RandomStallsAreSeedDeterministic) {
  sim::StragglerModel::Options jitter;
  jitter.stall_probability = 0.5;
  jitter.stall_min_seconds = 1.0;
  jitter.stall_max_seconds = 2.0;
  const sim::StragglerModel model(jitter);

  FaultPlan a, b, c;
  a.AddRandomStalls(/*seed=*/42, /*world=*/4, /*num_seqs=*/16, model);
  b.AddRandomStalls(/*seed=*/42, /*world=*/4, /*num_seqs=*/16, model);
  c.AddRandomStalls(/*seed=*/43, /*world=*/4, /*num_seqs=*/16, model);

  int stalled = 0;
  bool differs_from_c = false;
  for (int r = 0; r < 4; ++r) {
    for (uint64_t s = 0; s < 16; ++s) {
      EXPECT_DOUBLE_EQ(a.StallSeconds(r, s), b.StallSeconds(r, s));
      if (a.StallSeconds(r, s) > 0.0) ++stalled;
      if (a.StallSeconds(r, s) != c.StallSeconds(r, s)) differs_from_c = true;
    }
  }
  EXPECT_GT(stalled, 0);      // p=0.5 over 64 draws: some stalls exist
  EXPECT_LT(stalled, 64);     // ...and not all draws stall
  EXPECT_TRUE(differs_from_c);
}

// ---------------------------------------------------------------------------
// ProcessGroupSim fault semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, StallWithinTimeoutCompletesWithCorrectData) {
  auto plan = std::make_shared<FaultPlan>();
  plan->StallRank(1, 0, 1.5);  // late but inside the watchdog window

  SimWorldOptions options;
  options.fault_plan = plan;
  options.collective_timeout_seconds = 30.0;
  std::vector<double> values(3, 0.0);
  SimWorld::Run(3, options, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({8}, ctx.rank + 1.0);
    Status st = ctx.process_group->AllReduce(t)->Wait(ctx.clock, 30.0);
    EXPECT_TRUE(st.ok()) << st.ToString();
    values[static_cast<size_t>(ctx.rank)] = t.FlatAt(0);
    // Everyone's clock reflects waiting out the straggler.
    EXPECT_GE(ctx.clock->Now(), 1.5);
  });
  for (double v : values) EXPECT_DOUBLE_EQ(v, 1.0 + 2.0 + 3.0);
}

TEST(FaultInjectionTest, StallPastTimeoutSurfacesAsTypedTimeout) {
  auto plan = std::make_shared<FaultPlan>();
  plan->StallRank(1, 0, 100.0);

  SimWorldOptions options;
  options.fault_plan = plan;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({8}, 1.0);
    WorkHandle work = ctx.process_group->AllReduce(t);
    Status st = work->Wait(ctx.clock, 5.0);
    if (ctx.rank == 0) {
      // Punctual rank: the collective finished ~100s after its arrival, far
      // past its 5s watchdog. The diagnostic names the straggler.
      ASSERT_EQ(st.code(), StatusCode::kTimedOut) << st.ToString();
      EXPECT_NE(st.message().find("slowest participant: rank 1"),
                std::string::npos)
          << st.message();
      EXPECT_DOUBLE_EQ(ctx.clock->Now(), 5.0);  // advanced by the timeout
    } else {
      // The straggler itself arrived late and completed promptly.
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    // The work itself completed (data plane ran) — only the punctual
    // rank's watchdog fired.
    EXPECT_TRUE(work->IsCompleted());
    EXPECT_DOUBLE_EQ(t.FlatAt(0), 2.0);
  });
}

TEST(FaultInjectionTest, NonPositiveTimeoutDisablesWatchdog) {
  auto plan = std::make_shared<FaultPlan>();
  plan->StallRank(1, 0, 100.0);

  SimWorldOptions options;
  options.fault_plan = plan;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({4}, 1.0);
    Status st = ctx.process_group->AllReduce(t)->Wait(ctx.clock, 0.0);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_GE(ctx.clock->Now(), 100.0);
  });
}

TEST(FaultInjectionTest, DroppedRankFailsCollectiveWithoutDeadlock) {
  auto plan = std::make_shared<FaultPlan>();
  plan->DropRank(2, /*from_seq=*/0);

  SimWorldOptions options;
  options.fault_plan = plan;
  options.collective_timeout_seconds = 10.0;
  SimWorld::Run(3, options, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({8}, 1.0);
    WorkHandle work = ctx.process_group->AllReduce(t);
    Status st = work->Wait(ctx.clock, 30.0);
    ASSERT_EQ(st.code(), StatusCode::kTimedOut) << st.ToString();
    EXPECT_NE(st.message().find("rank 2"), std::string::npos) << st.message();
    EXPECT_NE(st.message().find("dropped"), std::string::npos) << st.message();
    EXPECT_TRUE(work->Poll());
    EXPECT_FALSE(work->IsCompleted());
    // The failure is stamped collective_timeout after the last live arrival.
    EXPECT_DOUBLE_EQ(work->completion_time(), 10.0);
  });
}

TEST(FaultInjectionTest, CrashedRankFailsAllRanksNamingIt) {
  auto plan = std::make_shared<FaultPlan>();
  plan->CrashRank(1, /*at_seq=*/1);

  SimWorldOptions options;
  options.fault_plan = plan;
  options.collective_timeout_seconds = 10.0;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Tensor a = Tensor::Full({8}, 1.0);
    Status st0 = ctx.process_group->AllReduce(a)->Wait(ctx.clock, 30.0);
    EXPECT_TRUE(st0.ok()) << st0.ToString();  // seq 0 precedes the crash
    EXPECT_DOUBLE_EQ(a.FlatAt(0), 2.0);

    Tensor b = Tensor::Full({8}, 1.0);
    WorkHandle work = ctx.process_group->AllReduce(b);
    Status st1 = work->Wait(ctx.clock, 30.0);
    ASSERT_EQ(st1.code(), StatusCode::kInternal) << st1.ToString();
    EXPECT_NE(st1.message().find("rank 1"), std::string::npos)
        << st1.message();
    EXPECT_NE(st1.message().find("crashed"), std::string::npos)
        << st1.message();
  });
}

TEST(FaultInjectionTest, BarrierWithCrashedPeerReturnsAtTimeout) {
  // Barrier has no Work to hand back, so a fault must not abort the
  // process: it waits out the collective timeout, logs, and returns.
  auto plan = std::make_shared<FaultPlan>();
  plan->CrashRank(1, /*at_seq=*/0);

  SimWorldOptions options;
  options.fault_plan = plan;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    if (ctx.rank == 1) return;  // crashed before its first collective
    ctx.process_group->Barrier();
    EXPECT_DOUBLE_EQ(ctx.clock->Now(), options.collective_timeout_seconds);
  });
}

TEST(FaultInjectionTest, DelayedCompletionAddsVirtualTime) {
  auto plan = std::make_shared<FaultPlan>();
  plan->DelayCompletion(0, 0, 3.0);

  double baseline = 0.0;
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1024}, 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    if (ctx.rank == 0) baseline = ctx.clock->Now();
  });

  SimWorldOptions options;
  options.fault_plan = plan;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1024}, 1.0);
    Status st = ctx.process_group->AllReduce(t)->Wait(ctx.clock, 30.0);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_DOUBLE_EQ(t.FlatAt(0), 2.0);
    if (ctx.rank == 0) {
      EXPECT_DOUBLE_EQ(ctx.clock->Now(), baseline + 3.0);
    }
  });
}

TEST(FaultInjectionTest, MismatchedCollectivesFailInsteadOfAborting) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    // Rank 1 issues a structurally different collective at the same seq —
    // the paper's "incorrect reduction result or program crash" scenario.
    Tensor t = ctx.rank == 0 ? Tensor::Full({8}, 1.0)
                             : Tensor::Full({16}, 1.0);
    WorkHandle work = ctx.process_group->AllReduce(t);
    Status st = work->Wait(ctx.clock, 30.0);
    ASSERT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.message().find("diverged"), std::string::npos)
        << st.message();
  });
}

// ---------------------------------------------------------------------------
// DDP end-to-end fault behaviour
// ---------------------------------------------------------------------------

/// Outcome of one rank's faulted DDP iteration, for cross-thread-count
/// comparison.
struct RankOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<float> grads;
};

std::vector<float> FlattenGrads(const nn::Module& module) {
  std::vector<float> out;
  for (const Tensor& p : module.parameters()) {
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) {
      out.push_back(static_cast<float>(g.FlatAt(i)));
    }
  }
  return out;
}

/// Two ranks train an Mlp({4,4}) (2 parameters => ctor broadcasts occupy
/// seqs 0-1, the first gradient bucket is seq 2). Rank 1 stalls 100s at the
/// gradient all-reduce against a 5s watchdog: rank 0 must surface a typed
/// timeout through DDP, rank 1 (late but internally consistent) succeeds.
std::vector<RankOutcome> RunStalledDdpIteration() {
  auto plan = std::make_shared<FaultPlan>();
  plan->StallRank(1, /*seq=*/2, 100.0);

  SimWorldOptions options;
  options.fault_plan = plan;
  std::vector<RankOutcome> outcomes(2);
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Rng rng(11);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    DdpOptions ddp_options;
    ddp_options.collective_timeout_seconds = 5.0;
    DistributedDataParallel ddp(model, ctx.process_group, ddp_options);
    Tensor x = Tensor::Full({2, 4}, 0.5);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));

    RankOutcome& out = outcomes[static_cast<size_t>(ctx.rank)];
    out.code = ddp.sync_status().code();
    out.message = ddp.sync_status().message();
    out.grads = FlattenGrads(*model);
  });
  return outcomes;
}

TEST(DdpFaultTest, StalledPeerSurfacesTimeoutNotDeadlock) {
  const std::vector<RankOutcome> outcomes = RunStalledDdpIteration();

  // Rank 0's watchdog fired; the diagnostic names the bucket and straggler.
  EXPECT_EQ(outcomes[0].code, StatusCode::kTimedOut);
  EXPECT_NE(outcomes[0].message.find("gradient bucket 0"), std::string::npos)
      << outcomes[0].message;
  EXPECT_NE(outcomes[0].message.find("slowest participant: rank 1"),
            std::string::npos)
      << outcomes[0].message;
  // Rank 1 arrived late but inside its own watchdog window: it holds the
  // (correctly averaged) gradients.
  EXPECT_EQ(outcomes[1].code, StatusCode::kOk) << outcomes[1].message;
  EXPECT_FALSE(outcomes[1].grads.empty());
}

TEST(DdpFaultTest, TimeoutOutcomeIsIdenticalAcrossThreadCounts) {
  // PR-1 bit-exactness harness pattern: the fault timeline and the surfaced
  // diagnostics must not depend on intra-op pool size.
  PoolSizeGuard guard;
  std::vector<std::vector<RankOutcome>> sweeps;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetNumThreads(threads);
    sweeps.push_back(RunStalledDdpIteration());
  }
  for (size_t i = 1; i < sweeps.size(); ++i) {
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(sweeps[i][r].code, sweeps[0][r].code) << "rank " << r;
      EXPECT_EQ(sweeps[i][r].message, sweeps[0][r].message) << "rank " << r;
      EXPECT_EQ(sweeps[i][r].grads, sweeps[0][r].grads)
          << "rank " << r << " gradients drifted across pool sizes";
    }
  }
}

TEST(DdpFaultTest, CrashedPeerNamedOnEveryRankAndSyncDisabled) {
  auto plan = std::make_shared<FaultPlan>();
  plan->CrashRank(1, /*at_seq=*/2);  // first gradient bucket (see above)

  SimWorldOptions options;
  options.fault_plan = plan;
  std::vector<RankOutcome> outcomes(2);
  std::vector<uint64_t> launches_after(2, 0);
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Rng rng(12);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    DdpOptions ddp_options;
    ddp_options.collective_timeout_seconds = 5.0;
    DistributedDataParallel ddp(model, ctx.process_group, ddp_options);
    Tensor x = Tensor::Full({2, 4}, 0.5);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));

    RankOutcome& out = outcomes[static_cast<size_t>(ctx.rank)];
    out.code = ddp.sync_status().code();
    out.message = ddp.sync_status().message();
    EXPECT_TRUE(ddp.sync_disabled());

    // The replica survives: further iterations degrade to local-only
    // accumulation and issue no collectives (the peers no longer share a
    // collective sequence).
    const uint64_t before = ddp.reducer().stats().allreduces_launched;
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    launches_after[static_cast<size_t>(ctx.rank)] =
        ddp.reducer().stats().allreduces_launched - before;
    out.grads = FlattenGrads(*model);
  });

  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(outcomes[r].code, StatusCode::kInternal)
        << "rank " << r << ": " << outcomes[r].message;
    EXPECT_NE(outcomes[r].message.find("rank 1"), std::string::npos)
        << "rank " << r << ": " << outcomes[r].message;
    EXPECT_NE(outcomes[r].message.find("crashed"), std::string::npos)
        << "rank " << r << ": " << outcomes[r].message;
    EXPECT_EQ(launches_after[r], 0u) << "rank " << r;
    EXPECT_FALSE(outcomes[r].grads.empty());
  }
}

TEST(DdpFaultTest, BucketLayoutDesyncDetectedAtConstruction) {
  // Rank 1 builds its reducer with a divergent bucket cap — the
  // desynchronized-configuration mistake the paper says yields "incorrect
  // reduction result or program crash". The Store handshake catches it
  // before any gradient collective is issued.
  std::vector<RankOutcome> outcomes(2);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(13);
    auto model = std::make_shared<nn::Mlp>(
        std::vector<int64_t>{8, 8, 8}, &rng);
    DdpOptions ddp_options;
    if (ctx.rank == 1) ddp_options.bucket_cap_bytes = 64;  // desync!
    DistributedDataParallel ddp(model, ctx.process_group, ddp_options);

    RankOutcome& out = outcomes[static_cast<size_t>(ctx.rank)];
    out.code = ddp.sync_status().code();
    out.message = ddp.sync_status().message();

    // Both replicas survive construction and can still train locally.
    Tensor x = Tensor::Full({2, 8}, 0.5);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_EQ(ddp.reducer().stats().allreduces_launched, 0u);
  });

  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(outcomes[r].code, StatusCode::kFailedPrecondition)
        << "rank " << r << ": " << outcomes[r].message;
    EXPECT_NE(outcomes[r].message.find("rank 1"), std::string::npos)
        << "rank " << r << ": " << outcomes[r].message;
    EXPECT_NE(outcomes[r].message.find("bucket"), std::string::npos)
        << "rank " << r << ": " << outcomes[r].message;
  }
}

TEST(DdpFaultTest, NoSyncIterationsUnaffectedByPlannedFault) {
  // The fault sits at the first *synced* gradient all-reduce (seq 2);
  // no_sync iterations issue no collectives, so they must be oblivious to
  // it, and the eventual synced backward surfaces the typed error while
  // leaving the locally-accumulated gradients intact.
  auto plan = std::make_shared<FaultPlan>();
  plan->DropRank(1, /*from_seq=*/2);

  SimWorldOptions options;
  options.fault_plan = plan;
  options.collective_timeout_seconds = 10.0;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Rng rng(14);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    DdpOptions ddp_options;
    ddp_options.collective_timeout_seconds = 10.0;
    DistributedDataParallel ddp(model, ctx.process_group, ddp_options);
    Tensor x = Tensor::Full({2, 4}, 0.5);

    {
      auto guard = ddp.no_sync();
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    }
    EXPECT_TRUE(ddp.sync_status().ok());
    const std::vector<float> after_one = FlattenGrads(*model);

    // Synced backward: the collective is short one participant.
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    if (ctx.rank == 0) {
      EXPECT_EQ(ddp.sync_status().code(), StatusCode::kTimedOut)
          << ddp.sync_status().ToString();
      EXPECT_FALSE(ddp.reducer().backward_finalized());
      // Local accumulation survived the abort: both backwards' gradients
      // are still there, un-averaged.
      const std::vector<float> after_two = FlattenGrads(*model);
      ASSERT_EQ(after_two.size(), after_one.size());
      for (size_t i = 0; i < after_one.size(); ++i) {
        EXPECT_NEAR(after_two[i], 2.0f * after_one[i], 1e-5f) << i;
      }
    } else {
      // The dropped rank's own call pre-fails.
      EXPECT_FALSE(ddp.sync_status().ok());
    }
  });
}

// ---------------------------------------------------------------------------
// Store attempt loop
// ---------------------------------------------------------------------------

TEST(StoreRetryTest, TransientFaultsAreRetriedUntilSuccess) {
  Store store;
  // Fewer faults than attempts: the first op absorbs all three and still
  // succeeds within its budget.
  static_assert(Store::kMaxAttempts > 3);
  store.InjectTransientFaults(/*failure_budget=*/3);

  EXPECT_TRUE(store.SetWithRetry("k", "v").ok());
  EXPECT_EQ(store.transient_failures(), 3u);

  auto got = store.GetWithRetry("k", /*timeout_seconds=*/1.0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), "v");

  int64_t counter = 0;
  EXPECT_TRUE(store.AddWithRetry("n", 5, &counter).ok());
  EXPECT_EQ(counter, 5);
}

TEST(StoreRetryTest, ExhaustedAttemptsSurfaceInternalError) {
  Store store;
  store.InjectTransientFaults(/*failure_budget=*/100);

  Status st = store.SetWithRetry("k", "v");
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_EQ(store.transient_failures(),
            static_cast<uint64_t>(Store::kMaxAttempts));
}

TEST(StoreRetryTest, BoundedGetTimesOutOnMissingKey) {
  Store store;
  auto got = store.GetWithRetry("never-set", /*timeout_seconds=*/0.05);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTimedOut)
      << got.status().ToString();
}

// ---------------------------------------------------------------------------
// Round-robin drain & failover
// ---------------------------------------------------------------------------

TEST(RoundRobinFailoverTest, UnhealthyChildIsDrainedAndSkipped) {
  // Child 1 of each rank's composite runs under a plan that drops rank 1
  // immediately; child 0 is fault-free. After DrainAndFailover, dispatch
  // must continue on child 0 alone, on every rank, with correct data.
  auto bad_plan = std::make_shared<FaultPlan>();
  bad_plan->DropRank(1, /*from_seq=*/0);

  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    ProcessGroupSim::Options good_opts;
    ProcessGroupSim::Options bad_opts;
    bad_opts.fault_plan = bad_plan;
    bad_opts.collective_timeout_seconds = 2.0;

    std::vector<std::shared_ptr<ProcessGroup>> children;
    children.push_back(ProcessGroupSim::Create(
        ctx.store, "rr_failover_good", ctx.rank, ctx.world, good_opts,
        ctx.clock));
    children.push_back(ProcessGroupSim::Create(
        ctx.store, "rr_failover_bad", ctx.rank, ctx.world, bad_opts,
        ctx.clock));
    RoundRobinProcessGroup rr(std::move(children));
    EXPECT_EQ(rr.num_healthy_groups(), 2u);

    // Collective 0 -> healthy child, collective 1 -> faulty child.
    Tensor a = Tensor::Full({8}, 1.0);
    Tensor b = Tensor::Full({8}, 1.0);
    const WorkHandle healthy = rr.AllReduce(a, ReduceOp::kSum);
    const WorkHandle faulty = rr.AllReduce(b, ReduceOp::kSum);

    Status st = rr.DrainAndFailover(/*timeout_seconds=*/5.0);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kTimedOut) << st.ToString();
    EXPECT_NE(st.message().find("rank 1"), std::string::npos) << st.message();
    EXPECT_EQ(rr.num_healthy_groups(), 1u);
    // The drain left both ops terminal: the healthy child's completed, the
    // faulty child's failed.
    EXPECT_TRUE(healthy->IsCompleted());
    EXPECT_TRUE(healthy->status().ok()) << healthy->status().ToString();
    EXPECT_TRUE(faulty->Poll());
    EXPECT_FALSE(faulty->status().ok());
    EXPECT_DOUBLE_EQ(a.FlatAt(0), 2.0);

    // Every post-failover collective lands on the surviving child.
    for (int i = 0; i < 3; ++i) {
      Tensor t = Tensor::Full({8}, ctx.rank + 1.0);
      Status sti = rr.AllReduce(t, ReduceOp::kSum)->Wait(ctx.clock, 30.0);
      EXPECT_TRUE(sti.ok()) << sti.ToString();
      EXPECT_DOUBLE_EQ(t.FlatAt(0), 3.0);
    }
    EXPECT_TRUE(rr.DrainAndFailover(/*timeout_seconds=*/5.0).ok());
    EXPECT_EQ(rr.num_healthy_groups(), 1u);
  });
}

TEST(RoundRobinFailoverTest, EveryChildFailedFailsTypedInsteadOfAborting) {
  // Both children drop rank 1 from their first collective, so the drain
  // leaves no healthy child. The drain and every later dispatch must
  // return typed errors, and the process must survive.
  auto plan = std::make_shared<FaultPlan>();
  plan->DropRank(1, /*from_seq=*/0);
  auto metrics = std::make_shared<MetricsRegistry>();

  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    ProcessGroupSim::Options opts;
    opts.fault_plan = plan;
    opts.collective_timeout_seconds = 2.0;
    opts.metrics = metrics;
    std::vector<std::shared_ptr<ProcessGroup>> children;
    for (const char* name : {"rr_exhausted_0", "rr_exhausted_1"}) {
      children.push_back(ProcessGroupSim::Create(ctx.store, name, ctx.rank,
                                                 ctx.world, opts, ctx.clock));
    }
    RoundRobinProcessGroup rr(std::move(children));

    Tensor a = Tensor::Full({8}, 1.0);
    Tensor b = Tensor::Full({8}, 1.0);
    const WorkHandle first = rr.AllReduce(a, ReduceOp::kSum);
    const WorkHandle second = rr.AllReduce(b, ReduceOp::kSum);
    const Status drained = rr.DrainAndFailover(/*timeout_seconds=*/5.0);
    EXPECT_EQ(drained.code(), StatusCode::kTimedOut) << drained.ToString();
    EXPECT_EQ(rr.num_healthy_groups(), 0u);
    EXPECT_FALSE(first->status().ok());
    EXPECT_FALSE(second->status().ok());

    Tensor late = Tensor::Full({8}, 1.0);
    const Status st = rr.AllReduce(late, ReduceOp::kSum)
                          ->Wait(ctx.clock, /*timeout_seconds=*/5.0);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_NE(st.message().find(rr.backend_name()), std::string::npos)
        << st.message();
    EXPECT_DOUBLE_EQ(late.FlatAt(0), 1.0);
  });
  // Two dispatches per rank reached a child; the third issued nothing.
  EXPECT_EQ(metrics->counter("pg.ops.all_reduce").value(), 4u);
}

TEST(RoundRobinFailoverTest, BarrierWithNoHealthyChildLogsAnError) {
  // Both children drop rank 1, so after the drain no child is left to run
  // a barrier. Barrier has no return value; it must say so at Error,
  // naming the composite, instead of returning silently.
  auto plan = std::make_shared<FaultPlan>();
  plan->DropRank(1, /*from_seq=*/0);
  std::vector<std::string> names(2);
  ::testing::internal::CaptureStderr();
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    ProcessGroupSim::Options opts;
    opts.fault_plan = plan;
    opts.collective_timeout_seconds = 2.0;
    std::vector<std::shared_ptr<ProcessGroup>> children;
    for (const char* name : {"rr_barrier_0", "rr_barrier_1"}) {
      children.push_back(ProcessGroupSim::Create(ctx.store, name, ctx.rank,
                                                 ctx.world, opts, ctx.clock));
    }
    RoundRobinProcessGroup rr(std::move(children));
    Tensor a = Tensor::Full({8}, 1.0);
    Tensor b = Tensor::Full({8}, 1.0);
    const WorkHandle first = rr.AllReduce(a, ReduceOp::kSum);
    const WorkHandle second = rr.AllReduce(b, ReduceOp::kSum);
    EXPECT_FALSE(rr.DrainAndFailover(/*timeout_seconds=*/5.0).ok());
    ASSERT_EQ(rr.num_healthy_groups(), 0u);
    rr.Barrier();
    names[static_cast<size_t>(ctx.rank)] = rr.backend_name();
  });
  const std::string err = ::testing::internal::GetCapturedStderr();
  for (int rank = 0; rank < 2; ++rank) {
    const std::string line = "[" + names[static_cast<size_t>(rank)] +
                             " rank " + std::to_string(rank) +
                             "] barrier failed: no healthy child group left";
    EXPECT_NE(err.find(line), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace ddpkit::comm
