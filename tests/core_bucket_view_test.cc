#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;

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

std::vector<uint32_t> Bits(const std::vector<float>& values) {
  std::vector<uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  return bits;
}

/// Per-rank inputs and the bit pattern DDP must produce from them at world
/// 2: (g0 + g1) * 0.5 in float, where g_r is rank r's local gradient of
/// MeanAll(Mlp(sizes, seed 2)(x_r)).
struct TwoRankAverage {
  std::vector<Tensor> inputs;
  std::vector<uint32_t> expected;
};

TwoRankAverage HandComputedAverage(const std::vector<int64_t>& sizes) {
  TwoRankAverage out;
  std::vector<std::vector<float>> local;
  for (int rank = 0; rank < 2; ++rank) {
    Rng data_rng(10 + rank);
    out.inputs.push_back(Tensor::Randn({3, sizes.front()}, &data_rng));
    Rng rng(2);
    nn::Mlp model(sizes, &rng);
    autograd::Backward(ops::MeanAll(model.Forward(out.inputs.back())));
    local.push_back(FlattenGrads(model));
  }
  std::vector<float> average(local[0].size());
  for (size_t i = 0; i < average.size(); ++i) {
    average[i] = (local[0][i] + local[1][i]) * 0.5f;
  }
  out.expected = Bits(average);
  return out;
}

TEST(BucketViewTest, GradAliasesBucketAfterConstruction) {
  SimWorld::Run(1, [&](SimWorld::RankContext& ctx) {
    Rng rng(1);
    auto model =
        std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4, 2}, &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    const std::vector<Tensor> params = model->parameters();
    // Views are lazy: no .grad exists before its parameter gets a gradient.
    for (const Tensor& p : params) EXPECT_FALSE(p.grad().defined());

    Tensor x = Tensor::Full({2, 4}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    // After the first synced backward every .grad is a view of its slot in
    // the one bucket, which packs the parameters in reverse order.
    std::vector<const float*> storage;
    for (const Tensor& p : params) {
      ASSERT_TRUE(p.grad().defined());
      EXPECT_EQ(p.grad().shape(), p.shape());
      storage.push_back(p.grad().data<float>());
    }
    for (size_t i = 1; i < params.size(); ++i) {
      EXPECT_EQ(storage[i] + params[i].numel(), storage[i - 1]) << i;
    }
    // Later backwards accumulate straight into the same bucket memory.
    model->ZeroGrad();
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i].grad().data<float>(), storage[i]) << i;
    }
  });
}

TEST(BucketViewTest, GradientsEqualHandComputedAverage) {
  const std::vector<int64_t> sizes{8, 8, 4};
  const TwoRankAverage reference = HandComputedAverage(sizes);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(2);
    auto model = std::make_shared<nn::Mlp>(sizes, &rng);
    DdpOptions options;
    options.bucket_cap_bytes = 256;  // several buckets
    DistributedDataParallel ddp(model, ctx.process_group, options);
    const Tensor& x = reference.inputs[static_cast<size_t>(ctx.rank)];
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_EQ(Bits(FlattenGrads(*model)), reference.expected)
        << "rank " << ctx.rank;
  });
}

TEST(BucketViewTest, ReplacedGradReceivesAverage) {
  // A .grad the user replaces after its view was attached is copied into
  // the slot once and re-pointed at the averaged slot, so every rank still
  // ends with the same average rather than its local gradient.
  const std::vector<int64_t> sizes{8, 8, 4};
  const TwoRankAverage reference = HandComputedAverage(sizes);
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(2);
    auto model = std::make_shared<nn::Mlp>(sizes, &rng);
    DdpOptions options;
    options.bucket_cap_bytes = 256;
    DistributedDataParallel ddp(model, ctx.process_group, options);
    const Tensor& x = reference.inputs[static_cast<size_t>(ctx.rank)];
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));  // attaches the views
    for (Tensor& p : model->parameters()) {
      p.set_grad(Tensor::Zeros(p.shape()));
    }
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_EQ(Bits(FlattenGrads(*model)), reference.expected)
        << "rank " << ctx.rank;
  });
}

TEST(BucketViewTest, TrainingMatchesLocalReference) {
  constexpr int kWorld = 2;
  constexpr int kSteps = 4;
  const int64_t per_rank = 2;

  Rng data_rng(3);
  std::vector<Tensor> xs, ys;
  for (int s = 0; s < kSteps; ++s) {
    xs.push_back(Tensor::Randn({per_rank * kWorld, 5}, &data_rng));
    ys.push_back(Tensor::Randn({per_rank * kWorld, 2}, &data_rng));
  }

  Rng model_rng(7);
  nn::Mlp local({5, 6, 2}, &model_rng);
  optim::Sgd local_opt(local.parameters(),
                       optim::Sgd::Options{.lr = 0.05, .momentum = 0.9});
  for (int s = 0; s < kSteps; ++s) {
    local_opt.ZeroGrad();
    autograd::Backward(nn::MSELoss()(local.Forward(xs[s]), ys[s]));
    local_opt.Step();
  }

  std::vector<float> ddp_params;
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(7);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{5, 6, 2},
                                           &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    optim::Sgd opt(model->parameters(),
                   optim::Sgd::Options{.lr = 0.05, .momentum = 0.9});
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

  size_t i = 0;
  for (const Tensor& p : local.parameters()) {
    for (int64_t j = 0; j < p.numel(); ++j, ++i) {
      EXPECT_NEAR(ddp_params[i], p.FlatAt(j), 5e-4);
    }
  }
}

TEST(BucketViewTest, NoSyncAccumulatesIntoViews) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(4);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{3, 1}, &rng);
    DistributedDataParallel ddp(model, ctx.process_group);
    Tensor x = Tensor::Full({1, 3}, 1.0);
    {
      auto guard = ddp.no_sync();
      autograd::Backward(ops::SumAll(ddp.Forward(x)));
    }
    std::vector<float> after_one = FlattenGrads(*model);
    autograd::Backward(ops::SumAll(ddp.Forward(x)));  // synced
    std::vector<float> after_sync = FlattenGrads(*model);
    // Synced gradient = accumulated (2x) then averaged across equal ranks
    // (identity here since both ranks saw identical data).
    for (size_t i = 0; i < after_one.size(); ++i) {
      EXPECT_NEAR(after_sync[i], 2.0f * after_one[i], 1e-5);
    }
  });
}

TEST(BucketViewTest, ViewsSurviveBucketRebuild) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(5);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{6, 6, 2},
                                           &rng);
    DdpOptions options;
    options.bucket_cap_bytes = 128;
    DistributedDataParallel ddp(model, ctx.process_group, options);
    for (int step = 0; step < 3; ++step) {
      model->ZeroGrad();
      Tensor x = Tensor::Full({2, 6}, 1.0);
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    }
    std::vector<float> before = FlattenGrads(*model);
    ASSERT_TRUE(ddp.reducer().RebuildBucketsFromTrace() ||
                true);  // rebuild may be a no-op if order matches
    std::vector<float> after = FlattenGrads(*model);
    EXPECT_EQ(before, after);  // values preserved across re-pointing
    // And training still works after the rebuild.
    model->ZeroGrad();
    Tensor x = Tensor::Full({2, 6}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_TRUE(ddp.reducer().backward_finalized());
  });
}

}  // namespace
}  // namespace ddpkit::core
