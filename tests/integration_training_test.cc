#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "data/distributed_sampler.h"
#include "data/synthetic.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"
#include "tests/wait_ok.h"

namespace ddpkit {
namespace {

using comm::SimWorld;
using comm::SimWorldOptions;
using core::DistributedDataParallel;

/// Full end-to-end loop: sampler + dataset + DDP + optimizer, the exact
/// shape of the paper's §3.1 usage example.
double TrainMnist(int world, int steps, int per_rank_batch,
                  sim::Backend backend, int skip_sync_every,
                  double lr = 0.05) {
  data::SyntheticMnist dataset(512, /*seed=*/77, /*noise_stddev=*/0.5);
  std::vector<double> final_losses(static_cast<size_t>(world), 0.0);

  SimWorldOptions options;
  options.backend = backend;
  SimWorld::Run(world, options, [&](SimWorld::RankContext& ctx) {
    Rng rng(5);
    auto model = std::make_shared<nn::SmallConvNet>(&rng, /*width=*/4);
    DistributedDataParallel ddp(model, ctx.process_group);
    optim::Sgd opt(model->parameters(), optim::Sgd::Options{.lr = lr});
    nn::CrossEntropyLoss ce;
    data::DistributedSampler sampler(dataset.size(), world, ctx.rank, 9);
    auto indices = sampler.EpochIndices(0);

    size_t cursor = 0;
    auto next_batch = [&] {
      std::vector<int64_t> batch_idx;
      for (int i = 0; i < per_rank_batch; ++i) {
        batch_idx.push_back(indices[cursor % indices.size()]);
        ++cursor;
      }
      return dataset.Get(batch_idx);
    };

    double loss_value = 0.0;
    for (int step = 0; step < steps; ++step) {
      opt.ZeroGrad();
      const bool sync = ((step + 1) % skip_sync_every) == 0;
      if (!sync) {
        auto guard = ddp.no_sync();
        auto batch = next_batch();
        autograd::Backward(ce(ddp.Forward(batch.inputs), batch.targets));
        continue;  // accumulate; no optimizer step
      }
      auto batch = next_batch();
      Tensor loss = ce(ddp.Forward(batch.inputs), batch.targets);
      loss_value = loss.Item();
      autograd::Backward(loss);
      opt.Step();
    }
    final_losses[static_cast<size_t>(ctx.rank)] = loss_value;
  });
  return final_losses[0];
}

TEST(IntegrationTest, MnistLossDecreasesWithDdp) {
  data::SyntheticMnist probe(512, 77, 0.5);
  // Initial loss ~ log(10) = 2.3; after training it must drop well below.
  const double final_loss =
      TrainMnist(/*world=*/2, /*steps=*/30, /*per_rank_batch=*/8,
                 sim::Backend::kNccl, /*skip_sync_every=*/1);
  EXPECT_LT(final_loss, 1.5);
}

TEST(IntegrationTest, GlooBackendTrainsTheSameModel) {
  const double final_loss =
      TrainMnist(2, 30, 8, sim::Backend::kGloo, 1);
  EXPECT_LT(final_loss, 1.5);
}

TEST(IntegrationTest, SkipSyncStillConverges) {
  // Fig 11(a): no_sync with small batches barely hurts convergence.
  const double final_loss =
      TrainMnist(2, 40, 8, sim::Backend::kNccl, /*skip_sync_every=*/2);
  EXPECT_LT(final_loss, 1.7);
}

TEST(IntegrationTest, AdamWithDdpKeepsReplicasIdentical) {
  constexpr int kWorld = 2;
  std::vector<std::vector<float>> params(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(8);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{6, 8, 2},
                                           &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    optim::Adam opt(model->parameters(), optim::Adam::Options{.lr = 1e-3});
    nn::MSELoss mse;
    for (int step = 0; step < 5; ++step) {
      opt.ZeroGrad();
      Rng data_rng(step * 100 + ctx.rank);
      Tensor x = Tensor::Randn({4, 6}, &data_rng);
      Tensor y = Tensor::Randn({4, 2}, &data_rng);
      autograd::Backward(mse(ddp.Forward(x), y));
      opt.Step();
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
}

TEST(IntegrationTest, RoundRobinGroupsTrainCorrectly) {
  constexpr int kWorld = 2;
  std::vector<std::vector<float>> params(kWorld);
  SimWorldOptions options;
  options.round_robin_groups = 3;
  SimWorld::Run(kWorld, options, [&](SimWorld::RankContext& ctx) {
    Rng rng(13);
    auto model = std::make_shared<nn::Mlp>(
        std::vector<int64_t>{8, 16, 16, 4}, &rng);
    core::DdpOptions ddp_options;
    ddp_options.bucket_cap_bytes = 256;  // many buckets across 3 groups
    DistributedDataParallel ddp(model, ctx.process_group, ddp_options);
    optim::Sgd opt(model->parameters(), optim::Sgd::Options{.lr = 0.05});
    nn::MSELoss mse;
    for (int step = 0; step < 4; ++step) {
      opt.ZeroGrad();
      Rng data_rng(step * 7 + ctx.rank);
      Tensor x = Tensor::Randn({2, 8}, &data_rng);
      Tensor y = Tensor::Randn({2, 4}, &data_rng);
      autograd::Backward(mse(ddp.Forward(x), y));
      opt.Step();
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
}

TEST(IntegrationTest, EightRankStress) {
  constexpr int kWorld = 8;
  std::vector<std::vector<float>> params(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(21);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{8, 8, 4},
                                           &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    optim::Sgd opt(model->parameters(), optim::Sgd::Options{.lr = 0.02});
    nn::MSELoss mse;
    for (int step = 0; step < 3; ++step) {
      opt.ZeroGrad();
      Rng data_rng(step * 31 + ctx.rank);
      Tensor x = Tensor::Randn({2, 8}, &data_rng);
      Tensor y = Tensor::Randn({2, 4}, &data_rng);
      autograd::Backward(mse(ddp.Forward(x), y));
      opt.Step();
    }
    std::vector<float> flat;
    for (const Tensor& p : model->parameters()) {
      for (int64_t i = 0; i < p.numel(); ++i) {
        flat.push_back(static_cast<float>(p.FlatAt(i)));
      }
    }
    params[static_cast<size_t>(ctx.rank)] = std::move(flat);
  });
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(params[static_cast<size_t>(r)], params[0]) << "rank " << r;
  }
}

TEST(IntegrationTest, ParameterAveragingDivergesFromDdpWithMomentum) {
  // The §2.2 claim: parameter averaging with momentum does NOT track local
  // large-batch training, while DDP does. (Averaging after EVERY step is
  // still linear-equivalent to gradient averaging; the divergence the
  // paper describes appears when replicas train locally between averaging
  // points, letting their momentum states see different gradients — so we
  // average every kAverageEvery steps, the realistic deployment.)
  constexpr int kWorld = 2;
  constexpr int kSteps = 8;
  constexpr int kAverageEvery = 4;
  const int64_t per_rank = 2;

  Rng data_rng(33);
  std::vector<Tensor> xs, ys;
  for (int s = 0; s < kSteps; ++s) {
    xs.push_back(Tensor::Randn({per_rank * kWorld, 4}, &data_rng));
    ys.push_back(Tensor::Randn({per_rank * kWorld, 2}, &data_rng));
  }

  // Local reference.
  Rng model_rng(44);
  nn::Mlp local({4, 2}, &model_rng);
  optim::Sgd local_opt(local.parameters(),
                       optim::Sgd::Options{.lr = 0.1, .momentum = 0.9});
  for (int s = 0; s < kSteps; ++s) {
    local_opt.ZeroGrad();
    autograd::Backward(nn::MSELoss()(local.Forward(xs[s]), ys[s]));
    local_opt.Step();
  }

  // Parameter averaging: local step on local shard, then average params.
  std::vector<float> avg_params;
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(44);
    nn::Mlp model({4, 2}, &rng);
    optim::Sgd opt(model.parameters(),
                   optim::Sgd::Options{.lr = 0.1, .momentum = 0.9});
    for (int s = 0; s < kSteps; ++s) {
      opt.ZeroGrad();
      Tensor x = xs[s].Narrow(0, ctx.rank * per_rank, per_rank).Clone();
      Tensor y = ys[s].Narrow(0, ctx.rank * per_rank, per_rank).Clone();
      autograd::Backward(nn::MSELoss()(model.Forward(x), y));
      opt.Step();
      // Average parameters periodically AFTER local optimizer steps (§2.2).
      if ((s + 1) % kAverageEvery == 0) {
        autograd::NoGradGuard guard;
        for (Tensor& p : model.parameters()) {
          EXPECT_WAIT_OK(ctx.process_group->AllReduce(p.Flatten()), ctx.clock);
          kernels::ScaleInPlace(&p, 1.0 / kWorld);
        }
      }
    }
    if (ctx.rank == 0) {
      for (const Tensor& p : model.parameters()) {
        for (int64_t i = 0; i < p.numel(); ++i) {
          avg_params.push_back(static_cast<float>(p.FlatAt(i)));
        }
      }
    }
  });

  // DDP run on the same shards.
  std::vector<float> ddp_params;
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(44);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 2}, &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    optim::Sgd opt(model->parameters(),
                   optim::Sgd::Options{.lr = 0.1, .momentum = 0.9});
    for (int s = 0; s < kSteps; ++s) {
      opt.ZeroGrad();
      Tensor x = xs[s].Narrow(0, ctx.rank * per_rank, per_rank).Clone();
      Tensor y = ys[s].Narrow(0, ctx.rank * per_rank, per_rank).Clone();
      autograd::Backward(nn::MSELoss()(ddp.Forward(x), y));
      opt.Step();
    }
    if (ctx.rank == 0) {
      for (const Tensor& p : model->parameters()) {
        for (int64_t i = 0; i < p.numel(); ++i) {
          ddp_params.push_back(static_cast<float>(p.FlatAt(i)));
        }
      }
    }
  });

  double ddp_err = 0.0, avg_err = 0.0;
  size_t i = 0;
  for (const Tensor& p : local.parameters()) {
    for (int64_t j = 0; j < p.numel(); ++j, ++i) {
      ddp_err = std::max(
          ddp_err, std::abs(ddp_params[i] - p.FlatAt(j)));
      avg_err = std::max(
          avg_err, std::abs(avg_params[i] - p.FlatAt(j)));
    }
  }
  EXPECT_LT(ddp_err, 1e-4);          // DDP tracks local training
  EXPECT_GT(avg_err, 10.0 * ddp_err);  // parameter averaging drifts
}

}  // namespace
}  // namespace ddpkit
