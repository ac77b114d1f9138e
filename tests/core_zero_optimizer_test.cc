// ZeroRedundancyOptimizer: optimizer-state sharding (§7 ZeRO discussion)
// must be mathematically identical to the unsharded optimizer while each
// rank only holds state for its own shard.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "comm/fault_plan.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "core/zero_redundancy_optimizer.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;

ZeroRedundancyOptimizer::OptimizerFactory SgdFactory(double lr,
                                                     double momentum) {
  return [lr, momentum](std::vector<Tensor> shard) {
    return std::make_unique<optim::Sgd>(
        std::move(shard), optim::Sgd::Options{.lr = lr, .momentum = momentum});
  };
}

TEST(ZeroOptimizerTest, ShardsPartitionAllParameters) {
  SimWorld::Run(3, [&](SimWorld::RankContext& ctx) {
    Rng rng(1);
    auto model = std::make_shared<nn::Mlp>(
        std::vector<int64_t>{8, 16, 16, 4}, &rng);
    ZeroRedundancyOptimizer zero(model->parameters(), ctx.process_group,
                                 SgdFactory(0.1, 0.0));
    std::set<size_t> seen;
    const size_t num_params = model->parameters().size();
    for (int r = 0; r < 3; ++r) {
      for (size_t idx : zero.ShardForRank(r)) {
        EXPECT_TRUE(seen.insert(idx).second) << "param owned twice";
        EXPECT_EQ(zero.OwnerOf(idx), r);
      }
    }
    EXPECT_EQ(seen.size(), num_params);
  });
}

TEST(ZeroOptimizerTest, ShardsAreBalancedByElements) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(2);
    // Four equal weight matrices split evenly across two ranks.
    auto model = std::make_shared<nn::Mlp>(
        std::vector<int64_t>{32, 32, 32, 32, 32}, &rng);
    auto params = model->parameters();
    ZeroRedundancyOptimizer zero(params, ctx.process_group,
                                 SgdFactory(0.1, 0.0));
    int64_t load[2] = {0, 0};
    for (int r = 0; r < 2; ++r) {
      for (size_t idx : zero.ShardForRank(r)) load[r] += params[idx].numel();
    }
    const double ratio = static_cast<double>(std::max(load[0], load[1])) /
                         static_cast<double>(std::min(load[0], load[1]));
    EXPECT_LT(ratio, 1.6);
  });
}

TEST(ZeroOptimizerTest, TrainingMatchesUnshardedOptimizer) {
  constexpr int kWorld = 4;
  constexpr int kSteps = 5;
  const int64_t per_rank = 2;

  Rng data_rng(3);
  std::vector<Tensor> xs, ys;
  for (int s = 0; s < kSteps; ++s) {
    xs.push_back(Tensor::Randn({per_rank * kWorld, 6}, &data_rng));
    ys.push_back(Tensor::Randn({per_rank * kWorld, 3}, &data_rng));
  }

  auto run = [&](bool sharded) {
    std::vector<float> result;
    SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
      Rng rng(7);
      auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{6, 8, 3},
                                             &rng);
      DistributedDataParallel ddp(model, ctx.process_group);
      std::unique_ptr<ZeroRedundancyOptimizer> zero;
      std::unique_ptr<optim::Sgd> plain;
      if (sharded) {
        zero = std::make_unique<ZeroRedundancyOptimizer>(
            model->parameters(), ctx.process_group, SgdFactory(0.05, 0.9));
      } else {
        plain = std::make_unique<optim::Sgd>(
            model->parameters(),
            optim::Sgd::Options{.lr = 0.05, .momentum = 0.9});
      }
      for (int s = 0; s < kSteps; ++s) {
        model->ZeroGrad();
        Tensor x = xs[s].Narrow(0, ctx.rank * per_rank, per_rank).Clone();
        Tensor y = ys[s].Narrow(0, ctx.rank * per_rank, per_rank).Clone();
        autograd::Backward(nn::MSELoss()(ddp.Forward(x), y));
        if (sharded) {
          ASSERT_TRUE(zero->Step().ok());
        } else {
          plain->Step();
        }
      }
      if (ctx.rank == 0) {
        for (const Tensor& p : model->parameters()) {
          for (int64_t i = 0; i < p.numel(); ++i) {
            result.push_back(static_cast<float>(p.FlatAt(i)));
          }
        }
      }
    });
    return result;
  };

  std::vector<float> sharded = run(true);
  std::vector<float> unsharded = run(false);
  ASSERT_EQ(sharded.size(), unsharded.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    // DDP gradients are identical on every rank, so the owner's update is
    // the same one every rank would have applied: bit-identical results.
    EXPECT_EQ(sharded[i], unsharded[i]) << "element " << i;
  }
}

// A peer that crashed before the step's broadcasts: Step returns the
// failure typed, naming the crashed rank, instead of aborting the process.
TEST(ZeroOptimizerTest, StepWithCrashedPeerReturnsTyped) {
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->CrashRank(1, /*at_seq=*/0);
  comm::SimWorldOptions options;
  options.fault_plan = plan;
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    if (ctx.rank == 1) return;  // crashed before its first collective
    Rng rng(5);
    auto model =
        std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 6, 2}, &rng);
    ZeroRedundancyOptimizer zero(model->parameters(), ctx.process_group,
                                 SgdFactory(0.1, 0.0));
    ASSERT_FALSE(zero.ShardForRank(1).empty());
    const Status status = zero.Step();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("rank 1"))
        << status.ToString();
  });
}

TEST(ZeroOptimizerTest, ReplicasStayIdentical) {
  constexpr int kWorld = 3;
  std::vector<std::vector<float>> params(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(11);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{5, 7, 2},
                                           &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    ZeroRedundancyOptimizer zero(model->parameters(), ctx.process_group,
                                 SgdFactory(0.02, 0.9));
    for (int s = 0; s < 4; ++s) {
      zero.ZeroGrad();
      Rng data_rng(s * 13 + ctx.rank);
      Tensor x = Tensor::Randn({2, 5}, &data_rng);
      Tensor y = Tensor::Randn({2, 2}, &data_rng);
      autograd::Backward(nn::MSELoss()(ddp.Forward(x), y));
      ASSERT_TRUE(zero.Step().ok());
    }
    std::vector<float> flat;
    for (const Tensor& p : model->parameters()) {
      for (int64_t i = 0; i < p.numel(); ++i) {
        flat.push_back(static_cast<float>(p.FlatAt(i)));
      }
    }
    params[static_cast<size_t>(ctx.rank)] = std::move(flat);
  });
  EXPECT_EQ(params[0], params[1]);
  EXPECT_EQ(params[0], params[2]);
}

TEST(ZeroOptimizerTest, WorldOfOneOwnsEverything) {
  SimWorld::Run(1, [&](SimWorld::RankContext& ctx) {
    Rng rng(13);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 2}, &rng);
    ZeroRedundancyOptimizer zero(model->parameters(), ctx.process_group,
                                 SgdFactory(0.1, 0.0));
    EXPECT_EQ(zero.ShardForRank(0).size(), model->parameters().size());
  });
}

}  // namespace
}  // namespace ddpkit::core
