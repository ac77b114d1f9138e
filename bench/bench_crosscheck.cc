// Cross-check: validates the discrete-event cluster simulator against the
// REAL thread-backed DDP stack at small scale. Both use the same cost
// models, bucket-assignment code and in-order launch rule; the real stack
// additionally runs true autograd and true ring all-reduce data movement.
// Agreement here is what licenses trusting the simulator's 256-GPU
// extrapolations.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "bench_json.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"
#include "comm/sim_world.h"
#include "core/distributed_data_parallel.h"
#include "nn/zoo.h"

using namespace ddpkit;  // NOLINT

namespace {

/// Virtual per-iteration latency measured on the real stack: compute is
/// charged by the same ComputeCostModel the simulator uses; communication
/// timing comes from the live ProcessGroupSim queues.
double RealStackLatency(int world, size_t bucket_cap,
                        const std::vector<int64_t>& mlp_sizes,
                        cluster::ModelSpec* spec_out) {
  constexpr int kIters = 6;
  double per_iter = 0.0;
  comm::SimWorld::Run(world, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(5);
    auto model = std::make_shared<nn::Mlp>(mlp_sizes, &rng);
    if (ctx.rank == 0 && spec_out != nullptr) {
      *spec_out = cluster::SpecFromModule("mlp", *model);
    }
    auto compute = std::make_shared<sim::ComputeCostModel>(
        sim::ComputeCostModel::GpuProfile());
    core::DdpOptions options;
    options.bucket_cap_bytes = bucket_cap;
    options.compute_model = compute;
    core::DistributedDataParallel ddp(model, ctx.process_group, options);

    int64_t total_numel = model->NumParameters();
    const double t0 = ctx.clock->Now();
    for (int it = 0; it < kIters; ++it) {
      model->ZeroGrad();
      Tensor x = Tensor::Full({2, mlp_sizes.front()}, 0.1);
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
      // Charge the optimizer step like the simulator does.
      ctx.clock->Advance(compute->OptimizerSeconds(total_numel));
    }
    if (ctx.rank == 0) per_iter = (ctx.clock->Now() - t0) / kIters;
  });
  return per_iter;
}

double SimulatorLatency(int world, size_t bucket_cap,
                        const cluster::ModelSpec& spec) {
  cluster::ClusterConfig config;
  config.world = world;
  config.backend = sim::Backend::kNccl;
  config.bucket_cap_bytes = bucket_cap;
  config.compute = sim::ComputeCostModel::GpuProfile();
  config.compute.op_jitter_sigma = 0.0;
  config.straggler.sigma = 0.0;
  cluster::ClusterSim sim(spec, config);
  return sim.Run(6).mean_breakdown.total;
}

}  // namespace

int main() {
  bench::Banner("Cross-check",
                "Cluster simulator vs real thread-backed DDP stack");
  // A ~1.3M-parameter MLP: big enough that comm and compute both matter.
  const std::vector<int64_t> sizes = {256, 512, 512, 512, 256, 64};
  std::printf("%-8s %-12s %-16s %-16s %-10s\n", "world", "bucket_cap",
              "real_stack_sec", "simulator_sec", "diff_%");
  bench::JsonReport report("crosscheck");
  json::Array rows;
  for (int world : {2, 4, 8}) {
    for (size_t cap : {size_t{64} << 10, size_t{1} << 20, size_t{25} << 20}) {
      cluster::ModelSpec spec;
      const double real = RealStackLatency(world, cap, sizes, &spec);
      const double simulated = SimulatorLatency(world, cap, spec);
      std::printf("%-8d %-12zu %-16.6f %-16.6f %-10.1f\n", world, cap, real,
                  simulated, 100.0 * (simulated - real) / real);
      rows.emplace_back(json::Object{{"world", world},
                                     {"bucket_cap_bytes", cap},
                                     {"real_stack_seconds", real},
                                     {"simulator_seconds", simulated}});
    }
  }
  report.Add("rows", std::move(rows));
  report.Write();
  std::printf("\nBoth paths share bucket assignment, compute charging and "
              "comm pricing; residual differences come from hook-time "
              "bookkeeping vs closed-form timelines. Small deltas validate "
              "the simulator's large-scale results (Figs 6-10, 12).\n");
  return 0;
}
