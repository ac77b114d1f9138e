// Figure 11: accuracy of skipping synchronization — REAL distributed
// training (thread-backed DDP stack, real autograd, real ring AllReduce)
// of a CNN on synthetic MNIST, comparing gradient sync every 1/2/4/8
// iterations under two regimes:
//   (a) batch size 8, lr 0.02  -> no_sync barely affects convergence;
//   (b) larger batch, larger lr -> no_sync hurts the final loss (the
//       paper's red-box effect: accumulated gradients implicitly demand a
//       smaller learning rate).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "bench_json.h"
#include "bench_util.h"
#include "comm/sim_world.h"
#include "core/distributed_data_parallel.h"
#include "data/distributed_sampler.h"
#include "data/synthetic.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"

using namespace ddpkit;  // NOLINT

namespace {

constexpr int kWorld = 2;

std::vector<double> TrainCurve(int iterations, int sync_every, int batch,
                               double lr, double momentum) {
  data::SyntheticMnist dataset(1024, /*seed=*/17, /*noise_stddev=*/0.8);
  std::vector<double> losses(static_cast<size_t>(iterations), 0.0);
  comm::SimWorld::Run(kWorld, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(4);
    auto model = std::make_shared<nn::SmallConvNet>(&rng, /*width=*/2);
    core::DistributedDataParallel ddp(model, ctx.process_group);
    optim::Sgd opt(model->parameters(),
                   optim::Sgd::Options{.lr = lr, .momentum = momentum});
    nn::CrossEntropyLoss criterion;
    data::DistributedSampler sampler(dataset.size(), kWorld, ctx.rank, 23);
    auto indices = sampler.EpochIndices(0);
    size_t cursor = 0;
    for (int it = 0; it < iterations; ++it) {
      std::vector<int64_t> ids;
      for (int b = 0; b < batch; ++b) {
        ids.push_back(indices[cursor++ % indices.size()]);
      }
      auto data = dataset.Get(ids);
      const bool sync = ((it + 1) % sync_every) == 0;
      double loss_value;
      if (!sync) {
        auto guard = ddp.no_sync();
        Tensor loss = criterion(ddp.Forward(data.inputs), data.targets);
        loss_value = loss.Item();
        autograd::Backward(loss);
      } else {
        Tensor loss = criterion(ddp.Forward(data.inputs), data.targets);
        loss_value = loss.Item();
        autograd::Backward(loss);
        opt.Step();
        opt.ZeroGrad();
      }
      if (ctx.rank == 0) losses[static_cast<size_t>(it)] = loss_value;
    }
  });
  return losses;
}

double Smoothed(const std::vector<double>& series, int at, int window) {
  double acc = 0.0;
  int n = 0;
  for (int i = std::max(0, at - window + 1); i <= at; ++i) {
    acc += series[static_cast<size_t>(i)];
    ++n;
  }
  return acc / n;
}

json::Value RunConfig(const char* label, int iterations, int batch, double lr,
                      double momentum) {
  std::printf("%s (batch=%d/rank, lr=%.2f, momentum=%.1f, %d ranks, real "
              "training):\n",
              label, batch, lr, momentum, kWorld);
  std::vector<std::vector<double>> curves;
  for (int n : {1, 2, 4, 8}) {
    curves.push_back(TrainCurve(iterations, n, batch, lr, momentum));
  }

  std::printf("  %-10s %-10s %-10s %-10s %-10s\n", "iteration", "nccl(n=1)",
              "no_sync_2", "no_sync_4", "no_sync_8");
  for (int it = 19; it < iterations; it += 20) {
    std::printf("  %-10d", it + 1);
    for (const auto& curve : curves) {
      std::printf(" %-10.4f", Smoothed(curve, it, 15));
    }
    std::printf("\n");
  }
  std::printf("  final smoothed losses: ");
  const int cadences[] = {1, 2, 4, 8};
  json::Array finals;
  for (size_t c = 0; c < curves.size(); ++c) {
    const double final_loss = Smoothed(curves[c], iterations - 1, 15);
    std::printf("%.4f  ", final_loss);
    finals.emplace_back(json::Object{{"sync_every", cadences[c]},
                                     {"final_smoothed_loss", final_loss}});
  }
  std::printf("\n\n");
  return json::Object{{"label", label},
                      {"batch", batch},
                      {"lr", lr},
                      {"cadences", std::move(finals)}};
}

}  // namespace

int main() {
  bench::Banner("Figure 11", "Convergence with skipped synchronization");
  bench::JsonReport report("fig11_convergence");
  json::Array configs;
  configs.push_back(RunConfig("(a) small batch", /*iterations=*/160,
                              /*batch=*/8, /*lr=*/0.02, /*momentum=*/0.0));
  // The paper's (b) regime: large batch and learning rate. Accumulating n
  // micro-gradients multiplies the effective step by ~n, which this lr and
  // momentum cannot absorb.
  configs.push_back(RunConfig("(b) large batch", /*iterations=*/100,
                              /*batch=*/64, /*lr=*/0.35, /*momentum=*/0.5));
  report.Add("configs", std::move(configs));
  report.Write();
  std::printf("Expected shape: in (a) all cadences converge almost "
              "identically; in (b) aggressive skipping (no_sync_8) leaves a "
              "visibly higher final loss (paper Fig 11's red box).\n");
  return 0;
}
