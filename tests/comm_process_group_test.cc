#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "comm/sim_world.h"
#include "tensor/tensor_ops.h"
#include "tests/wait_ok.h"

namespace ddpkit::comm {
namespace {

TEST(ProcessGroupTest, AllReduceSumsAcrossRanks) {
  constexpr int kWorld = 4;
  std::vector<double> results(kWorld, 0.0);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({8}, ctx.rank + 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    results[static_cast<size_t>(ctx.rank)] = t.FlatAt(0);
  });
  for (double r : results) {
    EXPECT_DOUBLE_EQ(r, 1.0 + 2.0 + 3.0 + 4.0);
  }
}

TEST(ProcessGroupTest, BroadcastFromEachRoot) {
  constexpr int kWorld = 3;
  for (int root = 0; root < kWorld; ++root) {
    std::vector<double> results(kWorld, -1.0);
    SimWorld::Run(kWorld, [&, root](SimWorld::RankContext& ctx) {
      Tensor t = Tensor::Full({4}, 100.0 * ctx.rank);
      EXPECT_WAIT_OK(ctx.process_group->Broadcast(t, root), ctx.clock);
      results[static_cast<size_t>(ctx.rank)] = t.FlatAt(0);
    });
    for (double r : results) {
      EXPECT_DOUBLE_EQ(r, 100.0 * root);
    }
  }
}

TEST(ProcessGroupTest, AllGatherCollectsRankOrder) {
  constexpr int kWorld = 4;
  std::vector<std::vector<double>> gathered(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor mine = Tensor::Full({2}, ctx.rank * 10.0);
    Tensor all = Tensor::Zeros({2 * kWorld});
    EXPECT_WAIT_OK(ctx.process_group->AllGather(mine, all), ctx.clock);
    for (int64_t i = 0; i < all.numel(); ++i) {
      gathered[static_cast<size_t>(ctx.rank)].push_back(all.FlatAt(i));
    }
  });
  for (int r = 0; r < kWorld; ++r) {
    for (int q = 0; q < kWorld; ++q) {
      EXPECT_DOUBLE_EQ(gathered[static_cast<size_t>(r)][2 * q], q * 10.0);
    }
  }
}

TEST(ProcessGroupTest, BarrierSynchronizes) {
  constexpr int kWorld = 6;
  std::atomic<int> before{0};
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    before.fetch_add(1);
    ctx.process_group->Barrier();
    EXPECT_EQ(before.load(), kWorld);
  });
}

TEST(ProcessGroupTest, AsyncWorkOverlapsAndWaitsLater) {
  constexpr int kWorld = 2;
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor a = Tensor::Full({16}, 1.0);
    Tensor b = Tensor::Full({16}, 2.0);
    WorkHandle wa = ctx.process_group->AllReduce(a);
    WorkHandle wb = ctx.process_group->AllReduce(b);
    // Waiting out of launch order is fine; data is still correct.
    EXPECT_WAIT_OK(wb, ctx.clock);
    EXPECT_WAIT_OK(wa, ctx.clock);
    EXPECT_DOUBLE_EQ(a.FlatAt(0), 2.0);
    EXPECT_DOUBLE_EQ(b.FlatAt(0), 4.0);
  });
}

TEST(ProcessGroupTest, VirtualClockAdvancesOnWait) {
  constexpr int kWorld = 4;
  std::vector<double> times(kWorld, 0.0);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1 << 18}, 1.0);  // 1 MB
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    times[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  for (double t : times) {
    EXPECT_GT(t, 0.0);
    // All ranks observe the same completion time (synchronized op from
    // identical arrival clocks).
    EXPECT_DOUBLE_EQ(t, times[0]);
  }
}

TEST(ProcessGroupTest, CommQueueSerializesCollectives) {
  // Two back-to-back AllReduces cost ~2x one: the group's comm queue
  // serializes them (the NCCL-stream behaviour motivating round-robin
  // groups).
  constexpr int kWorld = 2;
  std::vector<double> one(kWorld), two(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1 << 20}, 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    one[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor a = Tensor::Full({1 << 20}, 1.0);
    Tensor b = Tensor::Full({1 << 20}, 1.0);
    WorkHandle wa = ctx.process_group->AllReduce(a);
    WorkHandle wb = ctx.process_group->AllReduce(b);
    EXPECT_WAIT_OK(wa, ctx.clock);
    EXPECT_WAIT_OK(wb, ctx.clock);
    two[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  EXPECT_NEAR(two[0] / one[0], 2.0, 0.2);
}

TEST(ProcessGroupTest, GlooFlavorIsSlower) {
  std::vector<double> nccl_time(2), gloo_time(2);
  SimWorldOptions nccl_opts;
  nccl_opts.backend = sim::Backend::kNccl;
  SimWorld::Run(2, nccl_opts, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1 << 20}, 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    nccl_time[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  SimWorldOptions gloo_opts;
  gloo_opts.backend = sim::Backend::kGloo;
  SimWorld::Run(2, gloo_opts, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1 << 20}, 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    gloo_time[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  EXPECT_GT(gloo_time[0], nccl_time[0]);
}

TEST(ProcessGroupTest, RingAndNaiveAlgorithmsAgreeNumerically) {
  for (Algorithm algo : {Algorithm::kNaive, Algorithm::kRing,
                         Algorithm::kTree}) {
    std::vector<double> result(3);
    SimWorldOptions options;
    options.algorithm = algo;
    SimWorld::Run(3, options, [&](SimWorld::RankContext& ctx) {
      Tensor t = Tensor::Full({7}, static_cast<double>(ctx.rank));
      EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
      result[static_cast<size_t>(ctx.rank)] = t.FlatAt(3);
    });
    EXPECT_DOUBLE_EQ(result[0], 3.0) << AlgorithmName(algo);
  }
}

TEST(ProcessGroupTest, ManySmallOpsStress) {
  constexpr int kWorld = 4;
  constexpr int kOps = 50;
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    std::vector<Tensor> tensors;
    std::vector<WorkHandle> works;
    for (int i = 0; i < kOps; ++i) {
      tensors.push_back(Tensor::Full({3}, 1.0));
      works.push_back(ctx.process_group->AllReduce(tensors.back()));
    }
    for (auto& w : works) EXPECT_WAIT_OK(w, ctx.clock);
    for (const Tensor& t : tensors) {
      EXPECT_DOUBLE_EQ(t.FlatAt(0), kWorld);
    }
  });
}

TEST(ProcessGroupTest, RanksAndWorldExposed) {
  SimWorld::Run(3, [&](SimWorld::RankContext& ctx) {
    EXPECT_EQ(ctx.process_group->world(), 3);
    EXPECT_EQ(ctx.process_group->rank(), ctx.rank);
    EXPECT_EQ(ctx.process_group->backend_name(), "nccl");
  });
}

}  // namespace
}  // namespace ddpkit::comm
