// Parameter averaging vs gradient synchronization — the paper's §2.2
// argument, made concrete.
//
// Three runs on identical data shards with SGD+momentum:
//   (1) local reference: one model sees the whole global batch;
//   (2) DDP: gradient averaging every step;
//   (3) parameter averaging every K local steps (the realistic "auxiliary
//       step" deployment the paper critiques).
//
// DDP tracks the local reference to float precision; parameter averaging
// drifts because each replica's momentum state integrates different local
// gradients.
//
// Run: ./parameter_averaging [avg_every=4] [steps=20]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "comm/sim_world.h"
#include "common/status.h"
#include "core/distributed_data_parallel.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"

using namespace ddpkit;  // NOLINT — example brevity

namespace {

constexpr int kWorld = 4;
constexpr int64_t kPerRank = 4;
constexpr int64_t kInDim = 8;
constexpr int64_t kOutDim = 4;

std::vector<float> Flatten(const nn::Module& module) {
  std::vector<float> out;
  for (const Tensor& p : module.parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) {
      out.push_back(static_cast<float>(p.FlatAt(i)));
    }
  }
  return out;
}

double MaxDiff(const std::vector<float>& a, const std::vector<float>& b) {
  double mx = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return mx;
}

}  // namespace

int main(int argc, char** argv) {
  const int avg_every = argc > 1 ? std::atoi(argv[1]) : 4;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 20;
  const optim::Sgd::Options sgd{.lr = 0.05, .momentum = 0.9};

  // Shared step data (the global batch for every step).
  Rng data_rng(100);
  std::vector<Tensor> xs, ys;
  for (int s = 0; s < steps; ++s) {
    xs.push_back(Tensor::Randn({kPerRank * kWorld, kInDim}, &data_rng));
    ys.push_back(Tensor::Randn({kPerRank * kWorld, kOutDim}, &data_rng));
  }
  auto shard = [&](const Tensor& t, int rank) {
    return t.Narrow(0, rank * kPerRank, kPerRank).Clone();
  };

  // (1) Local reference.
  Rng model_rng(200);
  nn::Mlp reference({kInDim, 16, kOutDim}, &model_rng);
  optim::Sgd ref_opt(reference.parameters(), sgd);
  for (int s = 0; s < steps; ++s) {
    ref_opt.ZeroGrad();
    autograd::Backward(nn::MSELoss()(reference.Forward(xs[s]), ys[s]));
    ref_opt.Step();
  }
  std::vector<float> reference_params = Flatten(reference);

  // (2) DDP: gradient averaging.
  std::vector<float> ddp_params;
  comm::SimWorld::Run(kWorld, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(200);
    auto model = std::make_shared<nn::Mlp>(
        std::vector<int64_t>{kInDim, 16, kOutDim}, &rng);
    core::DistributedDataParallel ddp(model, ctx.process_group);
    optim::Sgd opt(model->parameters(), sgd);
    for (int s = 0; s < steps; ++s) {
      opt.ZeroGrad();
      autograd::Backward(nn::MSELoss()(
          ddp.Forward(shard(xs[s], ctx.rank)), shard(ys[s], ctx.rank)));
      opt.Step();
    }
    if (ctx.rank == 0) ddp_params = Flatten(*model);
  });

  // (3) Parameter averaging every `avg_every` local steps.
  std::vector<float> avg_params;
  std::vector<Status> avg_status(kWorld);
  comm::SimWorld::Run(kWorld, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(200);
    nn::Mlp model({kInDim, 16, kOutDim}, &rng);
    optim::Sgd opt(model.parameters(), sgd);
    for (int s = 0; s < steps; ++s) {
      opt.ZeroGrad();
      autograd::Backward(nn::MSELoss()(
          model.Forward(shard(xs[s], ctx.rank)), shard(ys[s], ctx.rank)));
      opt.Step();
      if ((s + 1) % avg_every == 0) {
        autograd::NoGradGuard guard;
        for (Tensor& p : model.parameters()) {
          Status& st = avg_status[static_cast<size_t>(ctx.rank)];
          st = ctx.process_group->AllReduce(p.Flatten())->Wait(ctx.clock, 0.0);
          if (!st.ok()) return;
          kernels::ScaleInPlace(&p, 1.0 / kWorld);
        }
      }
    }
    if (ctx.rank == 0) avg_params = Flatten(model);
  });
  for (const Status& st : avg_status) {
    if (!st.ok()) {
      std::fprintf(stderr, "parameter averaging failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  const double ddp_drift = MaxDiff(ddp_params, reference_params);
  const double avg_drift = MaxDiff(avg_params, reference_params);
  std::printf("parameter drift from local reference after %d steps "
              "(SGD momentum %.1f):\n",
              steps, sgd.momentum);
  std::printf("  gradient sync (DDP):                 %.3e\n", ddp_drift);
  std::printf("  parameter averaging (every %d steps): %.3e\n", avg_every,
              avg_drift);
  std::printf("  -> parameter averaging drifts %.0fx further; DDP is "
              "mathematically equivalent to local training (paper 2.2)\n",
              avg_drift / (ddp_drift > 0 ? ddp_drift : 1e-12));
  return 0;
}
