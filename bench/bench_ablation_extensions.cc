// Ablation B: the paper's future-work directions, implemented and measured.
//  (1) Gradient-order prediction (6.2.1): trace the real ready order on the
//      thread-backed stack and rebuild buckets; measure virtual iteration
//      latency before/after on a model whose registration order
//      mis-predicts its backward order.
//  (2) Gradient compression (6.2.3): fp16 and 1-bit payload scaling in the
//      cluster simulator across backends.
//  (3) Layer dropping (6.2.2): coordinated stochastic depth saves compute
//      but — with the fixed parameter-to-bucket mapping — none of the
//      communication, exactly the caveat the paper raises.
//  (4) ZeRO-style optimizer-state sharding (7): identical training result,
//      ~1/world optimizer memory, extra broadcast round per step.

#include <cstdio>
#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"
#include "comm/sim_world.h"
#include "common/check.h"
#include "core/distributed_data_parallel.h"
#include "core/order_tracer.h"
#include "core/zero_redundancy_optimizer.h"
#include "nn/layers.h"
#include "nn/zoo.h"
#include "nn/stochastic_depth.h"
#include "optim/sgd.h"

using namespace ddpkit;  // NOLINT

namespace {

/// Wide layers registered in REVERSE of invocation order, so the default
/// reverse-parameters() heuristic launches buckets in the worst order.
class PathologicalNet : public nn::Module {
 public:
  explicit PathologicalNet(Rng* rng) {
    for (int i = 0; i < 6; ++i) {
      layers_.push_back(RegisterModule(
          "fc" + std::to_string(i), std::make_shared<nn::Linear>(96, 96, rng)));
    }
  }
  Tensor Forward(const Tensor& input) override {
    Tensor x = input;
    // Invoke layers in reverse registration order.
    for (size_t i = layers_.size(); i-- > 0;) {
      x = ops::Relu(layers_[i]->Forward(x));
    }
    return x;
  }

 private:
  std::vector<std::shared_ptr<nn::Linear>> layers_;
};

void OrderTracingAblation() {
  std::printf("(1) gradient-order prediction (6.2.1), real DDP stack:\n");
  constexpr int kWorld = 4;
  std::vector<double> iter_latency;
  comm::SimWorld::Run(kWorld, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(3);
    auto model = std::make_shared<PathologicalNet>(&rng);
    core::DdpOptions options;
    options.bucket_cap_bytes = 96 * 96 * 4 + 96 * 4;  // one layer per bucket
    options.compute_model = std::make_shared<sim::ComputeCostModel>(
        sim::ComputeCostModel::GpuProfile());
    core::DistributedDataParallel ddp(model, ctx.process_group, options);
    core::OrderTracer tracer(core::OrderTracer::Options{
        .stable_iterations = 2, .max_rebuilds = 1});
    optim::Sgd opt(model->parameters(), optim::Sgd::Options{.lr = 0.01});

    double last = ctx.clock->Now();
    for (int step = 0; step < 8; ++step) {
      opt.ZeroGrad();
      Tensor x = Tensor::Full({4, 96}, 0.1);
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
      opt.Step();
      const bool rebuilt = tracer.ObserveAndMaybeRebuild(&ddp.reducer());
      if (ctx.rank == 0) {
        const double now = ctx.clock->Now();
        iter_latency.push_back(now - last);
        last = now;
        if (rebuilt) std::printf("  [step %d] buckets rebuilt from trace\n",
                                 step);
      }
    }
  });
  std::printf("  per-iteration virtual latency (ms): ");
  for (double t : iter_latency) std::printf("%.3f ", t * 1e3);
  std::printf("\n  before rebuild the mispredicted launch order serializes "
              "communication behind the whole backward pass; after it, "
              "buckets launch as their layers finish.\n\n");
}

void CompressionAblation() {
  std::printf("(2) gradient compression (6.2.3), cluster simulator, 32 "
              "GPUs:\n");
  std::printf("  %-12s %-8s %-12s %-12s %-12s\n", "model", "backend",
              "fp32", "fp16(x0.5)", "1bit(x1/32)");
  for (const auto& spec : {cluster::ResNet50Spec(), cluster::BertBaseSpec()}) {
    for (sim::Backend backend : {sim::Backend::kNccl, sim::Backend::kGloo}) {
      std::vector<double> times;
      for (double scale : {1.0, 0.5, 1.0 / 32.0}) {
        cluster::ClusterConfig config;
        config.world = 32;
        config.backend = backend;
        config.comm_bytes_scale = scale;
        config.straggler.sigma = 0.0;
        config.compute.op_jitter_sigma = 0.0;
        cluster::ClusterSim sim(spec, config);
        times.push_back(sim.Run(10).mean_breakdown.total);
      }
      std::printf("  %-12s %-8s %-12.4f %-12.4f %-12.4f\n",
                  spec.name.c_str(), sim::BackendName(backend), times[0],
                  times[1], times[2]);
    }
  }
  std::printf("  (numerical behaviour of the fp16 and 1-bit hooks is "
              "covered by core_compression_test; here only the traffic "
              "reduction is modeled.)\n");
}

/// A droppable residual stack with an always-on head, mirroring the
/// stochastic-depth transformers of the paper's [17] citation.
class DropStack : public nn::Module {
 public:
  DropStack(int blocks, int64_t dim, double drop_prob, Rng* rng) {
    for (int i = 0; i < blocks; ++i) {
      layers_.push_back(RegisterModule(
          "block" + std::to_string(i),
          std::make_shared<nn::StochasticDepth>(
              std::make_shared<nn::Linear>(dim, dim, rng), drop_prob,
              900 + static_cast<uint64_t>(i))));
    }
    head_ = RegisterModule("head",
                           std::make_shared<nn::Linear>(dim, dim, rng));
  }
  Tensor Forward(const Tensor& input) override {
    Tensor x = input;
    for (auto& layer : layers_) x = ops::Add(x, layer->Forward(x));
    return head_->Forward(x);
  }

 private:
  std::vector<std::shared_ptr<nn::StochasticDepth>> layers_;
  std::shared_ptr<nn::Linear> head_;
};

void LayerDroppingAblation() {
  std::printf("(3) layer dropping (6.2.2), real DDP stack, 2 ranks:\n");
  std::printf("  %-12s %-18s %-18s %-16s\n", "drop_prob", "grad_hooks_fired",
              "bytes_reduced", "vclock_ms");
  for (double drop : {0.0, 0.5}) {
    uint64_t bytes = 0;
    double vclock = 0.0;
    size_t hooks = 0;
    comm::SimWorld::Run(2, [&](comm::SimWorld::RankContext& ctx) {
      Rng rng(12);
      auto model = std::make_shared<DropStack>(6, 64, drop, &rng);
      core::DdpOptions options;
      options.find_unused_parameters = true;
      options.compute_model = std::make_shared<sim::ComputeCostModel>(
          sim::ComputeCostModel::GpuProfile());
      core::DistributedDataParallel ddp(model, ctx.process_group, options);
      size_t fired = 0;
      for (int step = 0; step < 10; ++step) {
        model->ZeroGrad();
        Tensor x = Tensor::Full({4, 64}, 0.1);
        autograd::Backward(ops::MeanAll(ddp.Forward(x)));
        for (uint8_t used : ddp.globally_used_mask()) fired += used;
      }
      if (ctx.rank == 0) {
        bytes = ddp.reducer().stats().bytes_reduced;
        vclock = ctx.clock->Now();
        hooks = fired;
      }
    });
    std::printf("  %-12.1f %-18zu %-18llu %-16.3f\n", drop, hooks,
                static_cast<unsigned long long>(bytes), vclock * 1e3);
  }
  std::printf("  dropping layers cuts compute (vclock) but NOT bytes "
              "reduced: AllReduce granularity is the bucket and the "
              "parameter-to-bucket mapping is fixed (paper 6.2.2).\n\n");
}

void ZeroShardingAblation() {
  std::printf("(4) ZeRO-style optimizer-state sharding (paper 7):\n");
  constexpr int kWorld = 4;
  std::printf("  %-14s %-20s %-14s\n", "optimizer", "state_elems/rank",
              "vclock_ms");
  for (bool sharded : {false, true}) {
    int64_t state_elems = 0;
    double vclock = 0.0;
    comm::SimWorld::Run(kWorld, [&](comm::SimWorld::RankContext& ctx) {
      Rng rng(13);
      auto model = std::make_shared<nn::Mlp>(
          std::vector<int64_t>{128, 128, 128, 64}, &rng);
      core::DdpOptions options;
      options.compute_model = std::make_shared<sim::ComputeCostModel>(
          sim::ComputeCostModel::GpuProfile());
      core::DistributedDataParallel ddp(model, ctx.process_group, options);
      const optim::Sgd::Options sgd{.lr = 0.01, .momentum = 0.9};
      std::unique_ptr<core::ZeroRedundancyOptimizer> zero;
      std::unique_ptr<optim::Sgd> plain;
      int64_t my_state = 0;
      if (sharded) {
        zero = std::make_unique<core::ZeroRedundancyOptimizer>(
            model->parameters(), ctx.process_group,
            [&](std::vector<Tensor> shard) {
              for (const Tensor& p : shard) my_state += p.numel();
              return std::make_unique<optim::Sgd>(std::move(shard), sgd);
            });
      } else {
        plain = std::make_unique<optim::Sgd>(model->parameters(), sgd);
        my_state = model->NumParameters();
      }
      for (int step = 0; step < 5; ++step) {
        model->ZeroGrad();
        Tensor x = Tensor::Full({2, 128}, 0.1);
        autograd::Backward(ops::MeanAll(ddp.Forward(x)));
        if (sharded) {
          const Status status = zero->Step();
          DDPKIT_CHECK(status.ok()) << status.ToString();
        } else {
          plain->Step();
        }
      }
      if (ctx.rank == 0) {
        state_elems = my_state;
        vclock = ctx.clock->Now();
      }
    });
    std::printf("  %-14s %-20lld %-14.3f\n",
                sharded ? "zero-sharded" : "replicated",
                static_cast<long long>(state_elems), vclock * 1e3);
  }
  std::printf("  sharding divides momentum memory by ~world at the cost of "
              "the parameter broadcast after each step — the ZeRO "
              "speed-for-memory trade the paper describes in 7.\n");
}

}  // namespace

int main() {
  bench::Banner("Ablation B", "Future-work extensions (Sections 6.2 and 7)");
  OrderTracingAblation();
  CompressionAblation();
  LayerDroppingAblation();
  ZeroShardingAblation();
  return 0;
}
