// Tests for the extended collective surface: Reduce, ReduceScatter, Gather
// (data-plane algorithms and process-group semantics).

#include <gtest/gtest.h>

#include <vector>

#include "comm/sim_world.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"
#include "tests/wait_ok.h"

namespace ddpkit::comm {
namespace {

// ---- Data-plane algorithms --------------------------------------------------

TEST(ReduceAlgoTest, OnlyRootReceivesSum) {
  std::vector<Tensor> tensors = {
      Tensor::Full({4}, 1.0),
      Tensor::Full({4}, 2.0),
      Tensor::Full({4}, 3.0),
  };
  RunReduce(ReduceOp::kSum, tensors, /*root=*/1);
  EXPECT_DOUBLE_EQ(tensors[0].FlatAt(0), 1.0);  // untouched
  EXPECT_DOUBLE_EQ(tensors[1].FlatAt(0), 6.0);  // reduced
  EXPECT_DOUBLE_EQ(tensors[2].FlatAt(0), 3.0);  // untouched
}

TEST(ReduceAlgoTest, MaxOperator) {
  std::vector<Tensor> tensors = {
      Tensor::FromVector({1, 9}, {2}),
      Tensor::FromVector({5, 2}, {2}),
  };
  RunReduce(ReduceOp::kMax, tensors, 0);
  EXPECT_DOUBLE_EQ(tensors[0].FlatAt(0), 5.0);
  EXPECT_DOUBLE_EQ(tensors[0].FlatAt(1), 9.0);
}

TEST(ReduceScatterAlgoTest, EachRankGetsItsReducedChunk) {
  constexpr int kWorld = 3;
  std::vector<Tensor> inputs, outputs;
  for (int r = 0; r < kWorld; ++r) {
    // input of rank r: [r+1, r+1, ...] over 3 chunks of 2.
    inputs.push_back(Tensor::Full({6}, r + 1.0));
    outputs.push_back(Tensor::Zeros({2}));
  }
  RunReduceScatter(ReduceOp::kSum, inputs, outputs);
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_DOUBLE_EQ(outputs[static_cast<size_t>(r)].FlatAt(0), 6.0);
    EXPECT_DOUBLE_EQ(outputs[static_cast<size_t>(r)].FlatAt(1), 6.0);
  }
}

TEST(ReduceScatterAlgoTest, MatchesAllReducePerChunk) {
  constexpr int kWorld = 4;
  const int64_t chunk = 5;
  Rng rng(9);
  std::vector<Tensor> inputs, outputs, allreduce_copy;
  for (int r = 0; r < kWorld; ++r) {
    inputs.push_back(Tensor::Randn({chunk * kWorld}, &rng));
    outputs.push_back(Tensor::Zeros({chunk}));
    allreduce_copy.push_back(inputs.back().Clone());
  }
  RunReduceScatter(ReduceOp::kSum, inputs, outputs);
  RunAllReduce(Algorithm::kRing, ReduceOp::kSum, allreduce_copy);
  // Chunk r of the all-reduced result equals rank r's reduce-scatter
  // output (bit-exact: same combine order by construction).
  for (int r = 0; r < kWorld; ++r) {
    Tensor expected = allreduce_copy[0].Narrow(0, r * chunk, chunk);
    EXPECT_EQ(kernels::MaxAbsDiff(outputs[static_cast<size_t>(r)], expected),
              0.0);
  }
}

TEST(GatherAlgoTest, RootCollectsInRankOrder) {
  std::vector<Tensor> inputs = {
      Tensor::Full({2}, 1.0),
      Tensor::Full({2}, 2.0),
  };
  Tensor out = Tensor::Zeros({4});
  RunGather(inputs, out, /*root=*/0);
  EXPECT_DOUBLE_EQ(out.FlatAt(0), 1.0);
  EXPECT_DOUBLE_EQ(out.FlatAt(2), 2.0);
}

// ---- Process-group semantics ----------------------------------------------------

TEST(ReducePgTest, RootGetsSumOthersKeepLocal) {
  constexpr int kWorld = 3;
  std::vector<double> values(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({4}, ctx.rank + 1.0);
    EXPECT_WAIT_OK(ctx.process_group->Reduce(t, /*root=*/2), ctx.clock);
    values[static_cast<size_t>(ctx.rank)] = t.FlatAt(0);
  });
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
  EXPECT_DOUBLE_EQ(values[2], 6.0);
}

TEST(ReduceScatterPgTest, DistributedChunks) {
  constexpr int kWorld = 2;
  std::vector<std::vector<double>> chunks(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor input = Tensor::FromVector(
        ctx.rank == 0 ? std::vector<float>{1, 2, 3, 4}
                      : std::vector<float>{10, 20, 30, 40},
        {4});
    Tensor output = Tensor::Zeros({2});
    EXPECT_WAIT_OK(ctx.process_group->ReduceScatter(input, output), ctx.clock);
    for (int64_t i = 0; i < 2; ++i) {
      chunks[static_cast<size_t>(ctx.rank)].push_back(output.FlatAt(i));
    }
  });
  EXPECT_EQ(chunks[0], (std::vector<double>{11.0, 22.0}));
  EXPECT_EQ(chunks[1], (std::vector<double>{33.0, 44.0}));
}

TEST(GatherPgTest, OnlyRootHasResult) {
  constexpr int kWorld = 3;
  std::vector<double> first(kWorld, -1.0);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor input = Tensor::Full({2}, 10.0 * (ctx.rank + 1));
    Tensor output;  // undefined on non-roots
    if (ctx.rank == 1) output = Tensor::Zeros({6});
    EXPECT_WAIT_OK(ctx.process_group->Gather(input, output, /*root=*/1),
                   ctx.clock);
    if (ctx.rank == 1) {
      EXPECT_DOUBLE_EQ(output.FlatAt(0), 10.0);
      EXPECT_DOUBLE_EQ(output.FlatAt(2), 20.0);
      EXPECT_DOUBLE_EQ(output.FlatAt(4), 30.0);
    }
  });
}

TEST(ExtraCollectivesTest, AdvanceVirtualClocks) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1 << 16}, 1.0);
    EXPECT_WAIT_OK(ctx.process_group->Reduce(t, 0), ctx.clock);
    const double after_reduce = ctx.clock->Now();
    EXPECT_GT(after_reduce, 0.0);
    Tensor input = Tensor::Full({1 << 16}, 1.0);
    Tensor output = Tensor::Zeros({1 << 15});
    EXPECT_WAIT_OK(ctx.process_group->ReduceScatter(input, output), ctx.clock);
    EXPECT_GT(ctx.clock->Now(), after_reduce);
  });
}

TEST(ExtraCollectivesTest, ReduceScatterCheaperThanAllReduce) {
  std::vector<double> rs_time(2), ar_time(2);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Tensor input = Tensor::Full({1 << 20}, 1.0);
    Tensor output = Tensor::Zeros({1 << 19});
    EXPECT_WAIT_OK(ctx.process_group->ReduceScatter(input, output), ctx.clock);
    rs_time[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Tensor t = Tensor::Full({1 << 20}, 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    ar_time[static_cast<size_t>(ctx.rank)] = ctx.clock->Now();
  });
  EXPECT_LT(rs_time[0], ar_time[0]);
}

}  // namespace
}  // namespace ddpkit::comm
