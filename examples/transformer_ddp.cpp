// Distributed training of a transformer classifier on synthetic token
// sequences — the NLP counterpart of mnist_ddp, exercising embeddings,
// fused attention, layer norm, Adam, cosine LR decay, gradient clipping
// and the ZeRO-style sharded optimizer.
//
// Run: ./transformer_ddp [world=2] [steps=80] [use_zero=0|1]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "autograd/engine.h"
#include "comm/sim_world.h"
#include "common/check.h"
#include "core/distributed_data_parallel.h"
#include "core/zero_redundancy_optimizer.h"
#include "data/distributed_sampler.h"
#include "data/synthetic.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/adam.h"
#include "optim/clip.h"
#include "optim/lr_scheduler.h"
#include "tensor/tensor_ops.h"

using namespace ddpkit;  // NOLINT — example brevity

int main(int argc, char** argv) {
  const int world = argc > 1 ? std::atoi(argv[1]) : 2;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 80;
  const bool use_zero = argc > 3 && std::atoi(argv[3]) != 0;
  const int batch = 16;

  nn::TransformerTiny::Config config;
  config.vocab_size = 64;
  config.seq_len = 8;
  config.dim = 16;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.num_classes = 4;

  std::printf("transformer_ddp: world=%d steps=%d batch=%d/rank "
              "optimizer=%s\n",
              world, steps, batch,
              use_zero ? "zero-sharded adam" : "adam");

  data::SyntheticTokens dataset(4096, config.seq_len, config.vocab_size,
                                config.num_classes, /*seed=*/3);

  comm::SimWorld::Run(world, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(17);
    auto model = std::make_shared<nn::TransformerTiny>(config, &rng);
    core::DistributedDataParallel ddp(model, ctx.process_group);

    std::unique_ptr<core::ZeroRedundancyOptimizer> zero;
    std::unique_ptr<optim::Adam> adam;
    std::unique_ptr<optim::CosineLr> scheduler;
    const optim::Adam::Options adam_options{.lr = 3e-3};
    if (use_zero) {
      zero = std::make_unique<core::ZeroRedundancyOptimizer>(
          model->parameters(), ctx.process_group,
          [&](std::vector<Tensor> shard) {
            return std::make_unique<optim::Adam>(std::move(shard),
                                                 adam_options);
          });
    } else {
      adam = std::make_unique<optim::Adam>(model->parameters(), adam_options);
      scheduler = std::make_unique<optim::CosineLr>(adam.get(), steps, 1e-4);
    }

    nn::CrossEntropyLoss criterion;
    data::DistributedSampler sampler(dataset.size(), world, ctx.rank, 29);
    auto indices = sampler.EpochIndices(0);

    size_t cursor = 0;
    int correct = 0, total = 0;
    for (int step = 0; step < steps; ++step) {
      std::vector<int64_t> ids;
      for (int b = 0; b < batch; ++b) {
        ids.push_back(indices[cursor++ % indices.size()]);
      }
      auto data = dataset.Get(ids);
      model->ZeroGrad();
      Tensor logits = ddp.Forward(data.inputs);
      Tensor loss = criterion(logits, data.targets);
      autograd::Backward(loss);
      optim::ClipGradNorm(model->parameters(), 5.0);
      if (use_zero) {
        const Status status = zero->Step();
        DDPKIT_CHECK(status.ok()) << status.ToString();
      } else {
        adam->Step();
        scheduler->Step();
      }

      // Track running accuracy on rank 0's shards.
      {
        autograd::NoGradGuard guard;
        Tensor pred = kernels::ArgMaxRows(logits);
        for (int64_t i = 0; i < pred.numel(); ++i) {
          if (pred.data<int64_t>()[i] == data.targets.data<int64_t>()[i]) {
            ++correct;
          }
          ++total;
        }
      }
      if (ctx.rank == 0 && (step % 10 == 0 || step == steps - 1)) {
        std::printf("step %3d  loss=%.4f  running-acc=%.1f%%\n", step,
                    loss.Item(), 100.0 * correct / total);
      }
    }
  });
  std::printf("transformer_ddp done (labels are the vocabulary band of each "
              "sequence's maximum token; accuracy well above the 25%% chance level "
              "shows distributed learning works end to end).\n");
  return 0;
}
