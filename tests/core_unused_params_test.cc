#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "nn/zoo.h"
#include "optim/sgd.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;

DdpOptions FindUnusedOptions() {
  DdpOptions options;
  options.find_unused_parameters = true;
  return options;
}

TEST(UnusedParamsTest, BackwardCompletesWhenBranchSkipped) {
  // The Fig 3(b) hang hazard: without proactive marking, buckets holding
  // the skipped branch would wait forever. With find_unused_parameters the
  // backward must finalize.
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(1);
    auto model = std::make_shared<nn::BranchyNet>(4, &rng);
    model->set_use_branch_a(true);  // same branch on all ranks
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    Tensor x = Tensor::Full({2, 4}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_TRUE(ddp.reducer().backward_finalized());
  });
}

TEST(UnusedParamsTest, GloballyUnusedGradientsStayIntact) {
  // Paper §3.2.3: "DDP should only touch gradients that are indeed involved
  // in the backward pass." Branch B's gradients first come out of a synced
  // backward (as bucket views); then no rank uses branch B, and they must
  // keep their exact bytes whether the user replaced them or wrote into
  // them in place. World 3 matters: (x+x)*0.5 == x for any finite x, but
  // (0.1f+0.1f+0.1f)*(1/3) != 0.1f, so only there does an averaged
  // gradient differ from an untouched one.
  for (int world : {2, 3}) {
    for (bool in_place : {false, true}) {
      // Failures land on rank threads, where SCOPED_TRACE does not reach.
      const std::string label =
          "world " + std::to_string(world) +
          (in_place ? ", written in place" : ", replaced");
      const float sentinel = in_place ? 0.1f : 42.0f;
      SimWorld::Run(world, [&](SimWorld::RankContext& ctx) {
        Rng rng(2);
        auto model = std::make_shared<nn::BranchyNet>(4, &rng);
        DistributedDataParallel ddp(model, ctx.process_group,
                                    FindUnusedOptions());
        Tensor x = Tensor::Full({2, 4}, 1.0);
        model->set_use_branch_a(false);
        autograd::Backward(ops::MeanAll(ddp.Forward(x)));
        for (Tensor& p : model->branch_b_parameters()) {
          if (in_place) {
            p.grad().Fill(sentinel);
          } else {
            p.set_grad(Tensor::Full(p.shape(), sentinel));
          }
        }
        model->set_use_branch_a(true);
        autograd::Backward(ops::MeanAll(ddp.Forward(x)));
        for (const Tensor& p : model->branch_b_parameters()) {
          Tensor g = p.grad();
          for (int64_t i = 0; i < g.numel(); ++i) {
            EXPECT_EQ(g.data<float>()[i], sentinel)  // untouched
                << label << ", rank " << ctx.rank << ", element " << i;
          }
        }
        for (const Tensor& p : model->branch_a_parameters()) {
          EXPECT_NE(p.grad().FlatAt(0), sentinel) << label;  // reduced
        }
      });
    }
  }
}

TEST(UnusedParamsTest, GloballyUsedMaskMatchesBranch) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(3);
    auto model = std::make_shared<nn::BranchyNet>(4, &rng);
    model->set_use_branch_a(false);
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    Tensor x = Tensor::Full({2, 4}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));

    const auto& mask = ddp.globally_used_mask();
    const auto named = model->named_parameters();
    ASSERT_EQ(mask.size(), named.size());
    for (size_t i = 0; i < named.size(); ++i) {
      const bool is_branch_a =
          named[i].first.find("branch_a") != std::string::npos;
      EXPECT_EQ(mask[i], is_branch_a ? 0 : 1) << named[i].first;
    }
  });
}

TEST(UnusedParamsTest, LocallyUnusedButGloballyUsedGetsAveragedGrad) {
  // Rank 0 uses branch A, rank 1 uses branch B: BOTH branches are globally
  // used, so every parameter must receive the cross-rank average (peers
  // contribute zeros for locally-skipped parameters).
  constexpr int kWorld = 2;
  std::vector<double> branch_a_grad(kWorld), branch_b_grad(kWorld);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Rng rng(4);
    auto model = std::make_shared<nn::BranchyNet>(4, &rng);
    model->set_use_branch_a(ctx.rank == 0);
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    model->ZeroGrad();
    Tensor x = Tensor::Full({2, 4}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));

    const auto& mask = ddp.globally_used_mask();
    for (uint8_t used : mask) EXPECT_EQ(used, 1);  // all globally used

    branch_a_grad[static_cast<size_t>(ctx.rank)] =
        model->branch_a_parameters()[0].grad().FlatAt(0);
    branch_b_grad[static_cast<size_t>(ctx.rank)] =
        model->branch_b_parameters()[0].grad().FlatAt(0);
  });
  // Averaged gradients are identical across ranks, including for the rank
  // that skipped the branch locally.
  EXPECT_DOUBLE_EQ(branch_a_grad[0], branch_a_grad[1]);
  EXPECT_DOUBLE_EQ(branch_b_grad[0], branch_b_grad[1]);
}

TEST(UnusedParamsTest, MaskKeepsOptimizerMomentumFrozen) {
  // End-to-end: masked SGD leaves the unused branch's parameters and
  // momentum untouched, matching local-training behaviour.
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(5);
    auto model = std::make_shared<nn::BranchyNet>(4, &rng);
    model->set_use_branch_a(true);
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    optim::Sgd opt(model->parameters(),
                   optim::Sgd::Options{.lr = 0.1, .momentum = 0.9});
    Tensor before = model->branch_b_parameters()[0].Clone();
    for (int step = 0; step < 3; ++step) {
      opt.ZeroGrad();
      Tensor x = Tensor::Full({2, 4}, step + 1.0);
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
      opt.Step(ddp.globally_used_mask());
    }
    Tensor after = model->branch_b_parameters()[0];
    for (int64_t i = 0; i < after.numel(); ++i) {
      EXPECT_EQ(after.FlatAt(i), before.FlatAt(i));
    }
  });
}

TEST(UnusedParamsTest, AlternatingBranchesAcrossIterations) {
  // The sub-graph changes every iteration (dynamic graphs, §3.2.3); DDP
  // must re-discover the participating set each forward.
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(6);
    auto model = std::make_shared<nn::BranchyNet>(4, &rng);
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    for (int step = 0; step < 4; ++step) {
      model->set_use_branch_a(step % 2 == 0);
      model->ZeroGrad();
      Tensor x = Tensor::Full({2, 4}, 1.0);
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
      EXPECT_TRUE(ddp.reducer().backward_finalized()) << "step " << step;
      const auto& mask = ddp.globally_used_mask();
      const auto named = model->named_parameters();
      for (size_t i = 0; i < named.size(); ++i) {
        const bool is_a = named[i].first.find("branch_a") != std::string::npos;
        const bool is_b = named[i].first.find("branch_b") != std::string::npos;
        if (is_a) {
          EXPECT_EQ(mask[i], step % 2 == 0 ? 1 : 0);
        }
        if (is_b) {
          EXPECT_EQ(mask[i], step % 2 == 0 ? 0 : 1);
        }
      }
    }
  });
}

TEST(UnusedParamsTest, BitmapAllReduceCounted) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(7);
    auto model = std::make_shared<nn::BranchyNet>(4, &rng);
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    Tensor x = Tensor::Full({2, 4}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    EXPECT_EQ(ddp.reducer().stats().bitmap_allreduces, 1u);
  });
}

TEST(UnusedParamsTest, FullyUsedModelHasAllOnesMask) {
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(8);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 4}, &rng);
    DistributedDataParallel ddp(model, ctx.process_group,
                                FindUnusedOptions());
    Tensor x = Tensor::Full({2, 4}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    for (uint8_t used : ddp.globally_used_mask()) EXPECT_EQ(used, 1);
  });
}

}  // namespace
}  // namespace ddpkit::core
