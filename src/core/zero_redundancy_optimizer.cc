#include "core/zero_redundancy_optimizer.h"

#include <algorithm>

#include "common/check.h"

namespace ddpkit::core {

ZeroRedundancyOptimizer::ZeroRedundancyOptimizer(
    std::vector<Tensor> params,
    std::shared_ptr<comm::ProcessGroup> process_group,
    OptimizerFactory factory)
    : params_(std::move(params)), pg_(std::move(process_group)) {
  DDPKIT_CHECK(pg_ != nullptr);
  DDPKIT_CHECK(!params_.empty());
  DDPKIT_CHECK(factory != nullptr);

  // Greedy balanced partition: assign each parameter (in order, so every
  // rank derives the identical mapping) to the currently lightest shard.
  const int world = pg_->world();
  shards_.resize(static_cast<size_t>(world));
  owner_.resize(params_.size());
  std::vector<int64_t> load(static_cast<size_t>(world), 0);
  for (size_t i = 0; i < params_.size(); ++i) {
    int lightest = 0;
    for (int r = 1; r < world; ++r) {
      if (load[static_cast<size_t>(r)] <
          load[static_cast<size_t>(lightest)]) {
        lightest = r;
      }
    }
    shards_[static_cast<size_t>(lightest)].push_back(i);
    owner_[i] = lightest;
    load[static_cast<size_t>(lightest)] += params_[i].numel();
  }

  std::vector<Tensor> my_shard;
  for (size_t idx : shards_[static_cast<size_t>(pg_->rank())]) {
    my_shard.push_back(params_[idx]);
  }
  // A rank can own zero parameters in degenerate configurations; give the
  // wrapped optimizer an empty list rather than skipping construction so
  // Step() stays uniform.
  local_optimizer_ = factory(std::move(my_shard));
  DDPKIT_CHECK(local_optimizer_ != nullptr);
}

const std::vector<size_t>& ZeroRedundancyOptimizer::ShardForRank(
    int rank) const {
  DDPKIT_CHECK(rank >= 0 && rank < pg_->world());
  return shards_[static_cast<size_t>(rank)];
}

int ZeroRedundancyOptimizer::OwnerOf(size_t param_index) const {
  DDPKIT_CHECK_LT(param_index, owner_.size());
  return owner_[param_index];
}

Status ZeroRedundancyOptimizer::Step() {
  // Local update on the owned shard only.
  if (!local_optimizer_->params().empty()) {
    local_optimizer_->Step();
  }
  // Publish every shard from its owner. All ranks issue the same broadcast
  // sequence (parameter order), satisfying the collective-ordering rule.
  std::vector<comm::WorkHandle> works;
  works.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    works.push_back(pg_->Broadcast(params_[i].Flatten(), owner_[i]));
  }
  // Drain them all, so no broadcast is still writing a parameter after
  // Step returns. A zero timeout leaves the virtual-time watchdog off: this
  // optimizer has no deadline to enforce, so only a failed broadcast is an
  // error.
  Status first_failure;
  for (auto& work : works) {
    const Status status = work->Wait(pg_->clock(), /*timeout_seconds=*/0.0);
    if (first_failure.ok()) first_failure = status;
  }
  return first_failure;
}

void ZeroRedundancyOptimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

}  // namespace ddpkit::core
