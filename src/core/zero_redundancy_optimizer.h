#ifndef DDPKIT_CORE_ZERO_REDUNDANCY_OPTIMIZER_H_
#define DDPKIT_CORE_ZERO_REDUNDANCY_OPTIMIZER_H_

#include <functional>
#include <memory>
#include <vector>

#include "comm/process_group.h"
#include "optim/optimizer.h"

namespace ddpkit::core {

/// Optimizer-state sharding on top of DDP — the first stage of the ZeRO
/// line of work the paper discusses in §7 ("ZeRO addressed this problem by
/// partitioning parameters, gradients, and optimizer states").
///
/// Each rank owns a contiguous shard of the parameter list (balanced by
/// element count), runs the wrapped optimizer only on its shard, and then
/// broadcasts the updated parameters from their owners. Optimizer state
/// (momentum/Adam moments) exists only on the owning rank, cutting that
/// memory by ~1/world at the price of the broadcast round — the
/// speed-for-memory trade the paper describes.
///
/// Gradients are still averaged by DDP before Step(), so every owner
/// applies the same update it would have applied unsharded: training is
/// mathematically identical to the wrapped optimizer.
class ZeroRedundancyOptimizer {
 public:
  /// `factory` builds the wrapped optimizer over this rank's shard.
  using OptimizerFactory = std::function<std::unique_ptr<optim::Optimizer>(
      std::vector<Tensor> shard_params)>;

  ZeroRedundancyOptimizer(std::vector<Tensor> params,
                          std::shared_ptr<comm::ProcessGroup> process_group,
                          OptimizerFactory factory);

  /// Updates this rank's shard, then broadcasts every shard from its owner.
  /// Waits for every broadcast, and returns the first failure typed (for
  /// example a crashed owner) instead of aborting.
  [[nodiscard]] Status Step();

  /// Zeroes all gradients (shard-independent).
  void ZeroGrad();

  /// The parameter indices owned by `rank`.
  const std::vector<size_t>& ShardForRank(int rank) const;
  int OwnerOf(size_t param_index) const;

  optim::Optimizer& local_optimizer() { return *local_optimizer_; }

 private:
  std::vector<Tensor> params_;
  std::shared_ptr<comm::ProcessGroup> pg_;
  std::vector<std::vector<size_t>> shards_;   // rank -> param indices
  std::vector<int> owner_;                    // param index -> rank
  std::unique_ptr<optim::Optimizer> local_optimizer_;
};

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_ZERO_REDUNDANCY_OPTIMIZER_H_
