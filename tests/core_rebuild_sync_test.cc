// Regression tests for the cross-rank bucket-rebuild protocol: rebuilds
// must converge every rank onto rank 0's traced ready order (broadcast
// through the Store), survive faults by draining cleanly, and treat every
// Store payload as untrusted bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/fault_plan.h"
#include "comm/process_group_sim.h"
#include "comm/sim_world.h"
#include "comm/store.h"
#include "common/barrier.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "core/reducer.h"
#include "nn/zoo.h"
#include "tests/run_within.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;
using comm::SimWorldOptions;

std::vector<float> FlattenGrads(const nn::Module& module) {
  std::vector<float> out;
  for (const Tensor& p : module.parameters()) {
    Tensor g = p.grad();
    if (!g.defined()) {
      // A branch the iteration never took: semantically a zero gradient.
      out.insert(out.end(), static_cast<size_t>(p.numel()), 0.0f);
      continue;
    }
    for (int64_t i = 0; i < g.numel(); ++i) {
      out.push_back(static_cast<float>(g.FlatAt(i)));
    }
  }
  return out;
}

double MaxDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double mx = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    mx = std::max(mx, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return mx;
}

/// The headline desync scenario (§6.2.1): four ranks observe DIFFERENT
/// gradient-ready orders (divergent control flow puts a different branch's
/// parameters first on rank 0 than everywhere else), then all rebuild.
/// Every rank must converge onto rank 0's traced order — rebuilding from
/// rank-local traces would give rank 0 a different bucket layout than
/// ranks 1-3, and every subsequent in-order AllReduce would silently mix
/// unrelated parameters.
TEST(RebuildSyncTest, DivergentReadyOrdersConvergeToRankZeroLayout) {
  constexpr int kWorld = 4;
  const int64_t dim = 8;
  const int64_t per_rank = 2;

  Rng data_rng(71);
  Tensor all_x = Tensor::Randn({per_rank * kWorld, dim}, &data_rng);

  // Single-process reference for the post-rebuild iteration: same seed,
  // same branch, full batch.
  Rng ref_rng(70);
  nn::BranchyNet reference(dim, &ref_rng);
  reference.set_use_branch_a(true);
  reference.ZeroGrad();
  autograd::Backward(ops::MeanAll(reference.Forward(all_x)));
  const std::vector<float> reference_grads = FlattenGrads(reference);

  std::vector<std::vector<size_t>> traced_orders(kWorld);
  std::vector<std::vector<std::vector<size_t>>> layouts(kWorld);
  // Not vector<bool>: rank threads write their own slot concurrently, and
  // the bit-packed specialization would make neighbouring slots share a
  // word (a data race TSan rightly flags).
  std::vector<uint8_t> changed(kWorld, 0);
  std::vector<Status> statuses(kWorld);
  std::vector<std::vector<float>> grads(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    const size_t r = static_cast<size_t>(ctx.rank);
    Rng rng(70);
    auto model = std::make_shared<nn::BranchyNet>(dim, &rng);
    DdpOptions options;
    options.find_unused_parameters = true;
    options.bucket_cap_bytes = dim * dim * 4 + dim * 4;  // ~1 layer/bucket
    DistributedDataParallel ddp(model, ctx.process_group, options);

    // Trace iteration: rank 0 takes branch A, everyone else branch B, so
    // the unused-parameter marking (and hence the ready order) diverges
    // deterministically across ranks.
    model->set_use_branch_a(ctx.rank == 0);
    model->ZeroGrad();
    autograd::Backward(ops::MeanAll(ddp.Forward(Tensor::Full({2, dim}, 0.5))));
    traced_orders[r] = ddp.reducer().last_ready_order();

    changed[r] = ddp.reducer().RebuildBucketsFromTrace() ? 1 : 0;
    layouts[r] = ddp.reducer().assignment().buckets;
    statuses[r] = ddp.sync_status();

    // Post-rebuild iteration: identical control flow, rank-sharded batch.
    model->set_use_branch_a(true);
    model->ZeroGrad();
    Tensor x = all_x.Narrow(0, ctx.rank * per_rank, per_rank).Clone();
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    grads[r] = FlattenGrads(*model);
  });

  // The traces genuinely diverged (this is the scenario that used to
  // desynchronize layouts)...
  EXPECT_NE(traced_orders[0], traced_orders[1]);
  ASSERT_FALSE(layouts[0].empty());
  for (int r = 0; r < kWorld; ++r) {
    // ...yet every rank adopted rank 0's broadcast order: identical layout,
    // identical rebuild outcome, and the post-rebuild validation handshake
    // passed everywhere.
    EXPECT_EQ(layouts[static_cast<size_t>(r)], layouts[0]) << "rank " << r;
    EXPECT_EQ(changed[static_cast<size_t>(r)], changed[0]) << "rank " << r;
    EXPECT_TRUE(statuses[static_cast<size_t>(r)].ok())
        << "rank " << r << ": " << statuses[static_cast<size_t>(r)].ToString();
    // Gradients after the rebuild: bit-exact across replicas and matching
    // single-process training on the full batch.
    EXPECT_EQ(grads[static_cast<size_t>(r)], grads[0]) << "rank " << r;
    EXPECT_LT(MaxDiff(grads[static_cast<size_t>(r)], reference_grads), 2e-5)
        << "rank " << r;
  }
  // The rebuild actually moved parameters (rank 0's trace puts the unused
  // branch B first, unlike the registration-order default).
  EXPECT_TRUE(changed[0]);
}

TEST(RebuildSyncTest, LoneRebuilderSurfacesTypedTimeoutNotCorruption) {
  // Only rank 1 calls RebuildBucketsFromTrace: rank 0 never broadcasts an
  // order for that epoch, so rank 1 must get a bounded, typed error — the
  // alternative (rebuilding from its local trace) is exactly the silent
  // desync this protocol exists to prevent.
  std::vector<Status> statuses(2);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(21);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    ReducerOptions options;
    options.validation_timeout_seconds = 0.3;
    Reducer reducer(model->parameters(), ctx.process_group, options);
    ASSERT_TRUE(reducer.sync_status().ok())
        << reducer.sync_status().ToString();
    if (ctx.rank == 1) {
      EXPECT_FALSE(reducer.RebuildBucketsFromTrace());
      statuses[1] = reducer.sync_status();
      // Sync is disabled; later rebuilds are refused outright.
      EXPECT_FALSE(reducer.RebuildBucketsFromTrace());
    }
  });
  EXPECT_EQ(statuses[1].code(), StatusCode::kTimedOut)
      << statuses[1].ToString();
  EXPECT_NE(statuses[1].message().find(
                "did every rank call RebuildBucketsFromTrace"),
            std::string::npos)
      << statuses[1].message();
}

TEST(RebuildSyncTest, MalformedBroadcastOrderIsTypedNotFatal) {
  // Rank 0 poisons the epoch-0 rebuild key instead of calling the rebuild:
  // "2:0:0" parses numerically but is not a permutation. Rank 1 must fold
  // it into a FailedPrecondition instead of crashing or adopting it.
  std::vector<Status> statuses(2);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(22);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    Reducer reducer(model->parameters(), ctx.process_group, ReducerOptions());
    ASSERT_TRUE(reducer.sync_status().ok());
    if (ctx.rank == 0) {
      ctx.store->Set("reducer/rebuild/0/v0/order", "2:0:0");
    } else {
      EXPECT_FALSE(reducer.RebuildBucketsFromTrace());
      statuses[1] = reducer.sync_status();
    }
  });
  EXPECT_EQ(statuses[1].code(), StatusCode::kFailedPrecondition)
      << statuses[1].ToString();
  EXPECT_NE(statuses[1].message().find("malformed ready order"),
            std::string::npos)
      << statuses[1].message();
  EXPECT_NE(statuses[1].message().find("2:0:0"), std::string::npos)
      << statuses[1].message();
}

TEST(RebuildSyncTest, MalformedLayoutSignatureIsTypedNotFatal) {
  // Only rank 0 constructs a reducer; "rank 1" is an adversarial peer that
  // publishes garbage where a layout signature belongs. Validation must
  // name the offender in a typed error — the defensive ParseSignatureNumels
  // path — rather than throwing out of std::stoll.
  std::vector<Status> statuses(2);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    if (ctx.rank == 1) {
      ctx.store->Set("reducer/layout/0/v0/rank1", "2:64:banana");
      return;
    }
    Rng rng(23);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    Reducer reducer(model->parameters(), ctx.process_group, ReducerOptions());
    statuses[0] = reducer.sync_status();
  });
  EXPECT_EQ(statuses[0].code(), StatusCode::kFailedPrecondition)
      << statuses[0].ToString();
  EXPECT_NE(statuses[0].message().find("malformed signature"),
            std::string::npos)
      << statuses[0].message();
  EXPECT_NE(statuses[0].message().find("rank 1"), std::string::npos)
      << statuses[0].message();
}

/// A Store whose prefix deletes fail, as if the store server dropped each
/// one, until Heal().
class DeleteFailingStore : public comm::Store {
 public:
  void Heal() { failing_ = false; }

 protected:
  Result<int64_t> DoDeletePrefix(const std::string& prefix) override {
    if (failing_) return Status::Internal("store server dropped the delete");
    return Store::DoDeletePrefix(prefix);
  }

 private:
  std::atomic<bool> failing_{true};
};

TEST(RebuildSyncTest, FailedSweepKeepsSyncAndRetriesNextRound) {
  // Garbage collection is bounded and never disables sync: while deletes
  // fail, the layout and rebuild sweeps leave their cursors in place, and
  // the first round after the store heals deletes every stale epoch.
  DeleteFailingStore store;
  Barrier barrier(2);
  size_t keys_after_construction = 0;
  testing_util::RunWithin(30.0, [&] {
    std::vector<std::thread> ranks;
    for (int rank = 0; rank < 2; ++rank) {
      ranks.emplace_back([&, rank] {
        sim::VirtualClock clock;
        auto pg = comm::ProcessGroupSim::Create(
            &store, "rebuild_sweep_fails", rank, 2,
            comm::ProcessGroupSim::Options(), &clock);
        Rng rng(25);
        auto model =
            std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
        DistributedDataParallel ddp(model, pg);
        const auto round = [&] {
          autograd::Backward(
              ops::MeanAll(ddp.Forward(Tensor::Full({2, 4}, 0.5))));
          ddp.reducer().RebuildBucketsFromTrace();
          EXPECT_TRUE(ddp.sync_status().ok())
              << "rank " << rank << ": " << ddp.sync_status().ToString();
        };
        // Instance counters and layout epoch 0: what one live epoch keeps.
        if (barrier.ArriveAndWait()) keys_after_construction = store.NumKeys();
        barrier.ArriveAndWait();
        for (int i = 0; i < 3; ++i) round();
        if (barrier.ArriveAndWait()) store.Heal();
        barrier.ArriveAndWait();
        round();
      });
    }
    for (std::thread& t : ranks) t.join();
  });
  EXPECT_GT(keys_after_construction, 0u);
  EXPECT_EQ(store.NumKeys(), keys_after_construction);
}

TEST(RebuildSyncTest, AbortDrainsInFlightWorkAndClearsUsage) {
  // A dropped peer fails the gradient collectives mid-backward. The abort
  // path must (a) drain the in-flight bucket handles without throwing, (b)
  // clear the locally-used bitmap so the failed iteration's usage cannot
  // leak into a later accounting, and (c) leave the replica able to run
  // further (local-only) backwards.
  auto plan = std::make_shared<comm::FaultPlan>();
  // Mlp({8,8,8}) has 4 parameters => DDP ctor broadcasts occupy seqs 0-3;
  // gradient buckets start at seq 4.
  plan->DropRank(1, /*from_seq=*/4);

  SimWorldOptions world_options;
  world_options.fault_plan = plan;
  world_options.collective_timeout_seconds = 5.0;
  SimWorld::Run(2, world_options, [&](SimWorld::RankContext& ctx) {
    Rng rng(24);
    auto model =
        std::make_shared<nn::Mlp>(std::vector<int64_t>{8, 8, 8}, &rng);
    DdpOptions options;
    options.find_unused_parameters = true;
    options.bucket_cap_bytes = 8 * 8 * 4 + 8 * 4;  // >1 bucket in flight
    options.collective_timeout_seconds = 5.0;
    DistributedDataParallel ddp(model, ctx.process_group, options);
    ASSERT_GT(ddp.reducer().num_buckets(), 1u);

    Tensor x = Tensor::Full({2, 8}, 0.5);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));

    EXPECT_FALSE(ddp.sync_status().ok()) << "rank " << ctx.rank;
    EXPECT_FALSE(ddp.reducer().backward_finalized());
    EXPECT_EQ(ddp.reducer().stats().sync_failures, 1u);
    // The usage bitmap was cleared by the abort, not left dangling.
    for (uint8_t used : ddp.reducer().locally_used()) {
      EXPECT_EQ(used, 0) << "rank " << ctx.rank;
    }

    // The replica survives: local-only backward, no new collectives, and
    // the drained handles did not wedge the reducer or its destructor.
    const uint64_t launched = ddp.reducer().stats().allreduces_launched;
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_EQ(ddp.reducer().stats().allreduces_launched, launched);
    EXPECT_EQ(ddp.reducer().stats().sync_failures, 1u);
  });
}

}  // namespace
}  // namespace ddpkit::core
