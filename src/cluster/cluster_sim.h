#ifndef DDPKIT_CLUSTER_CLUSTER_SIM_H_
#define DDPKIT_CLUSTER_CLUSTER_SIM_H_

#include <memory>
#include <optional>
#include <vector>

#include "cluster/model_specs.h"
#include "common/stats.h"
#include "core/bucketing.h"
#include "sim/comm_cost_model.h"
#include "sim/compute_cost_model.h"
#include "sim/jitter.h"
#include "sim/topology.h"

namespace ddpkit::cluster {

/// One DDP training configuration at cluster scale.
struct ClusterConfig {
  int world = 1;
  sim::Backend backend = sim::Backend::kNccl;
  sim::Topology topology = sim::Topology();

  size_t bucket_cap_bytes = 25u << 20;
  /// When false, all communication waits for the end of the backward
  /// compute — the naive/parameter-averaging structure of §2.2/§3.2.1 and
  /// the "non-overlap" bars of Fig 6.
  bool overlap = true;
  /// Gradient synchronization every n-th iteration (no_sync, Fig 10).
  int skip_sync_every = 1;
  /// Round-robin process-group count (Fig 12).
  int round_robin_groups = 1;
  /// Adds the extra uint8 bitmap AllReduce per synced iteration (§3.2.3).
  bool find_unused_parameters = false;
  /// Scales communicated bytes (gradient-compression ablation, §6.2.3).
  double comm_bytes_scale = 1.0;

  sim::ComputeCostModel::Options compute = sim::ComputeCostModel::V100Profile();
  sim::StragglerModel::Options straggler;
  /// NCCL link-model override (the degraded shared links of Figs 9-10);
  /// other backends always use their defaults.
  std::optional<sim::NcclCostModel::Options> nccl_options;

  /// Every `hiccup_every` iterations add `hiccup_seconds` (the Fig 7/8
  /// outliers: "delay spikes at 100 iteration boundaries caused by DDP
  /// instance re-construction and input data regeneration").
  int hiccup_every = 0;
  double hiccup_seconds = 0.0;

  uint64_t seed = 42;
};

/// Averaged per-iteration latency decomposition (Fig 6's stacks).
struct IterationBreakdown {
  double forward = 0.0;
  double backward_compute = 0.0;
  /// Communication time NOT hidden behind backward compute.
  double backward_comm_exposed = 0.0;
  double optimizer = 0.0;
  double total = 0.0;
  /// Raw communication busy time (hidden + exposed).
  double comm_busy = 0.0;
};

struct SimResult {
  std::vector<double> iteration_latencies;  // seconds, one per iteration
  IterationBreakdown mean_breakdown;        // over synced iterations
  size_t num_buckets = 0;
  Summary LatencySummary() const { return Summarize(iteration_latencies); }
};

/// Discrete-event per-iteration latency simulator for DDP at arbitrary
/// world sizes. Substitutes for the paper's 32-GPU cluster and 256-GPU
/// shared entitlement. Reuses the production bucket-assignment code
/// (core/bucketing.h) and the same comm/compute cost models as the
/// thread-backed stack; ranks are symmetric, so one representative rank's
/// timeline is simulated with straggler skew sampled across the world.
///
/// Event model per synced iteration:
///   1. gradients become ready along the compute model's backward timeline
///      (reverse registration order, per-op jitter);
///   2. a bucket is ready when its last gradient is; buckets launch
///      strictly in order (§3.2.3);
///   3. each launch queues on one of `round_robin_groups` serialized comm
///      queues; the cost model prices each AllReduce with bandwidth shared
///      across concurrently-configured groups;
///   4. backward ends at max(compute end, last AllReduce completion);
///      without overlap, launches are all held to the compute end.
class ClusterSim {
 public:
  ClusterSim(ModelSpec spec, ClusterConfig config);

  /// Simulates `iterations` training iterations.
  SimResult Run(int iterations);

  /// Cost of all-reducing `total_bytes` split into `per_op_bytes` chunks
  /// queued back-to-back (the Fig 2(a)/(b) microbenchmark).
  double SplitAllReduceSeconds(size_t total_bytes, size_t per_op_bytes) const;

  const core::BucketAssignment& assignment() const { return assignment_; }
  const sim::CommCostModel& cost_model() const { return *cost_model_; }

 private:
  /// One iteration; returns its latency and accumulates breakdown terms.
  double SimulateIteration(bool synced, Rng* rng,
                           IterationBreakdown* accumulate);

  ModelSpec spec_;
  ClusterConfig config_;
  std::unique_ptr<sim::CommCostModel> cost_model_;
  sim::ComputeCostModel compute_;
  sim::StragglerModel straggler_;
  core::BucketAssignment assignment_;
  std::vector<size_t> bucket_bytes_;
  std::vector<int64_t> backward_numels_;  // per-param, backward order
};

}  // namespace ddpkit::cluster

#endif  // DDPKIT_CLUSTER_CLUSTER_SIM_H_
