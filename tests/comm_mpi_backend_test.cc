#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/sim_world.h"
#include "core/distributed_data_parallel.h"
#include "nn/zoo.h"
#include "sim/comm_cost_model.h"
#include "tests/wait_ok.h"

namespace ddpkit {
namespace {

using comm::SimWorld;
using comm::SimWorldOptions;

TEST(MpiCostModelTest, SitsBetweenNcclAndGloo) {
  sim::Topology topo;
  sim::NcclCostModel nccl{topo};
  sim::MpiCostModel mpi{topo};
  sim::GlooCostModel gloo{topo};
  for (size_t bytes : {size_t{64} << 10, size_t{25} << 20}) {
    for (int world : {4, 32}) {
      const double t_nccl = nccl.AllReduceSeconds(bytes, world, 1);
      const double t_mpi = mpi.AllReduceSeconds(bytes, world, 1);
      const double t_gloo = gloo.AllReduceSeconds(bytes, world, 1);
      EXPECT_LT(t_nccl, t_mpi) << bytes << " " << world;
      EXPECT_LT(t_mpi, t_gloo) << bytes << " " << world;
    }
  }
}

TEST(MpiCostModelTest, WorldOfOneIsFree) {
  sim::MpiCostModel model{sim::Topology()};
  EXPECT_DOUBLE_EQ(model.AllReduceSeconds(1 << 20, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(model.BroadcastSeconds(1 << 20, 1), 0.0);
  EXPECT_DOUBLE_EQ(model.BarrierSeconds(1), 0.0);
}

TEST(MpiCostModelTest, FactoryDispatch) {
  EXPECT_EQ(sim::MakeCostModel(sim::Backend::kMpi, sim::Topology())->backend(),
            sim::Backend::kMpi);
  EXPECT_STREQ(sim::BackendName(sim::Backend::kMpi), "mpi");
}

TEST(MpiBackendTest, AllReduceDataCorrect) {
  SimWorldOptions options;
  options.backend = sim::Backend::kMpi;
  std::vector<double> results(3);
  SimWorld::Run(3, options, [&](SimWorld::RankContext& ctx) {
    EXPECT_EQ(ctx.process_group->backend_name(), "mpi");
    Tensor t = Tensor::Full({8}, ctx.rank + 1.0);
    EXPECT_WAIT_OK(ctx.process_group->AllReduce(t), ctx.clock);
    results[static_cast<size_t>(ctx.rank)] = t.FlatAt(0);
    EXPECT_GT(ctx.clock->Now(), 0.0);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 6.0);
}

TEST(MpiBackendTest, DdpTrainsOnMpi) {
  SimWorldOptions options;
  options.backend = sim::Backend::kMpi;
  std::vector<std::vector<float>> params(2);
  SimWorld::Run(2, options, [&](SimWorld::RankContext& ctx) {
    Rng rng(5);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{4, 2}, &rng);
    core::DistributedDataParallel ddp(model, ctx.process_group);
    for (int step = 0; step < 2; ++step) {
      model->ZeroGrad();
      Rng data_rng(step * 3 + ctx.rank);
      Tensor x = Tensor::Randn({2, 4}, &data_rng);
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    }
    std::vector<float> flat;
    for (const Tensor& p : model->parameters()) {
      Tensor g = p.grad();
      for (int64_t i = 0; i < g.numel(); ++i) {
        flat.push_back(static_cast<float>(g.FlatAt(i)));
      }
    }
    params[static_cast<size_t>(ctx.rank)] = std::move(flat);
  });
  EXPECT_EQ(params[0], params[1]);
}

}  // namespace
}  // namespace ddpkit
