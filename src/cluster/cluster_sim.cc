#include "cluster/cluster_sim.h"

#include <algorithm>

#include "common/check.h"

namespace ddpkit::cluster {

ClusterSim::ClusterSim(ModelSpec spec, ClusterConfig config)
    : spec_(std::move(spec)),
      config_(config),
      compute_(config.compute),
      straggler_(config.straggler) {
  DDPKIT_CHECK_GT(config_.world, 0);
  DDPKIT_CHECK_GE(config_.round_robin_groups, 1);
  DDPKIT_CHECK_GE(config_.skip_sync_every, 1);

  if (config_.backend == sim::Backend::kNccl && config_.nccl_options) {
    cost_model_ = std::make_unique<sim::NcclCostModel>(config_.topology,
                                                       *config_.nccl_options);
  } else {
    cost_model_ = sim::MakeCostModel(config_.backend, config_.topology);
  }

  // Exactly the production bucketing code path (core/bucketing.cc).
  assignment_ = core::AssignBuckets(spec_.params, config_.bucket_cap_bytes);
  bucket_bytes_.reserve(assignment_.buckets.size());
  for (const auto& bucket : assignment_.buckets) {
    bucket_bytes_.push_back(core::BucketBytes(spec_.params, bucket));
  }

  backward_numels_.reserve(spec_.params.size());
  for (size_t i = spec_.params.size(); i-- > 0;) {
    backward_numels_.push_back(spec_.params[i].numel);
  }
}

double ClusterSim::SimulateIteration(bool synced, Rng* rng,
                                     IterationBreakdown* accumulate) {
  const int64_t total_numel = spec_.TotalNumel();
  const int64_t num_params = static_cast<int64_t>(spec_.params.size());

  // Straggler skew: a synchronized collective effectively starts at the
  // slowest rank's arrival, so the representative rank's compute stretches
  // by the max skew across the world.
  const double skew = synced && config_.world > 1
                          ? straggler_.SampleMaxOverWorld(rng, config_.world)
                          : straggler_.Sample(rng);

  const double forward =
      compute_.ForwardSeconds(total_numel, num_params) * skew;

  // Backward readiness timeline (reverse registration order).
  std::vector<double> ready = compute_.GradReadyTimes(backward_numels_, rng);
  for (double& t : ready) t *= skew;
  const double compute_end = ready.empty() ? 0.0 : ready.back();

  double backward_end = compute_end;
  double comm_busy = 0.0;

  if (synced && config_.world > 1) {
    const size_t num_buckets = assignment_.buckets.size();
    // Bucket b's gradients are a contiguous run of the backward timeline:
    // bucket 0 takes the first slots, etc. (reverse-parameter packing).
    std::vector<double> bucket_ready(num_buckets, 0.0);
    {
      size_t cursor = 0;
      for (size_t b = 0; b < num_buckets; ++b) {
        cursor += assignment_.buckets[b].size();
        DDPKIT_CHECK_LE(cursor, ready.size());
        bucket_ready[b] = ready[cursor - 1];
      }
    }

    const int k = config_.round_robin_groups;
    std::vector<double> queue_tail(static_cast<size_t>(k), 0.0);
    double last_done = 0.0;
    double prev_launch = 0.0;
    for (size_t b = 0; b < num_buckets; ++b) {
      // In-order launch rule; without overlap every launch waits for the
      // full backward compute.
      double launch = config_.overlap ? bucket_ready[b] : compute_end;
      launch = std::max(launch, prev_launch);
      prev_launch = launch;

      const size_t q = b % static_cast<size_t>(k);
      const double start = std::max(launch, queue_tail[q]);
      const size_t bytes = static_cast<size_t>(
          static_cast<double>(bucket_bytes_[b]) * config_.comm_bytes_scale);
      const double duration =
          cost_model_->AllReduceSeconds(bytes, config_.world, k);
      queue_tail[q] = start + duration;
      comm_busy += duration;
      last_done = std::max(last_done, queue_tail[q]);
    }

    if (config_.find_unused_parameters) {
      // The extra uint8 bitmap AllReduce, launched after all buckets.
      const double launch =
          config_.overlap ? std::max(compute_end, prev_launch) : compute_end;
      const size_t q = num_buckets % static_cast<size_t>(k);
      const double start = std::max(launch, queue_tail[q]);
      const double duration = cost_model_->AllReduceSeconds(
          static_cast<size_t>(num_params), config_.world, k);
      queue_tail[q] = start + duration;
      comm_busy += duration;
      last_done = std::max(last_done, queue_tail[q]);
    }

    backward_end = std::max(compute_end, last_done);
  }

  const double optimizer = compute_.OptimizerSeconds(total_numel) * skew;
  const double total = forward + backward_end + optimizer;

  if (accumulate != nullptr) {
    accumulate->forward += forward;
    accumulate->backward_compute += compute_end;
    accumulate->backward_comm_exposed += backward_end - compute_end;
    accumulate->optimizer += optimizer;
    accumulate->total += total;
    accumulate->comm_busy += comm_busy;
  }
  return total;
}

SimResult ClusterSim::Run(int iterations) {
  DDPKIT_CHECK_GT(iterations, 0);
  Rng rng(config_.seed);

  SimResult result;
  result.num_buckets = assignment_.buckets.size();
  result.iteration_latencies.reserve(static_cast<size_t>(iterations));

  IterationBreakdown sum;
  int synced_count = 0;
  for (int it = 0; it < iterations; ++it) {
    // Iteration n-1, 2n-1, ... are the synced ones within each no_sync
    // window of length n.
    const bool synced = ((it + 1) % config_.skip_sync_every) == 0;
    IterationBreakdown* acc = synced ? &sum : nullptr;
    double latency = SimulateIteration(synced, &rng, acc);
    if (synced) ++synced_count;
    if (config_.hiccup_every > 0 && it > 0 &&
        it % config_.hiccup_every == 0) {
      latency += config_.hiccup_seconds;
    }
    result.iteration_latencies.push_back(latency);
  }

  if (synced_count > 0) {
    const double inv = 1.0 / synced_count;
    result.mean_breakdown.forward = sum.forward * inv;
    result.mean_breakdown.backward_compute = sum.backward_compute * inv;
    result.mean_breakdown.backward_comm_exposed =
        sum.backward_comm_exposed * inv;
    result.mean_breakdown.optimizer = sum.optimizer * inv;
    result.mean_breakdown.total = sum.total * inv;
    result.mean_breakdown.comm_busy = sum.comm_busy * inv;
  }
  return result;
}

double ClusterSim::SplitAllReduceSeconds(size_t total_bytes,
                                         size_t per_op_bytes) const {
  DDPKIT_CHECK_GT(per_op_bytes, 0u);
  // Async launches back-to-back on one queue, then block on all of them —
  // the microbenchmark protocol of Fig 2(a)/(b). On a serialized queue the
  // total is the sum of op durations.
  double total = 0.0;
  size_t remaining = total_bytes;
  while (remaining > 0) {
    const size_t chunk = std::min(per_op_bytes, remaining);
    total += cost_model_->AllReduceSeconds(chunk, config_.world, 1);
    remaining -= chunk;
  }
  return total;
}

}  // namespace ddpkit::cluster
