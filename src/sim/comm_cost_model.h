#ifndef DDPKIT_SIM_COMM_COST_MODEL_H_
#define DDPKIT_SIM_COMM_COST_MODEL_H_

#include <cstddef>
#include <memory>

#include "sim/collective_algo.h"
#include "sim/topology.h"

namespace ddpkit::sim {

/// Communication backend flavors. The paper evaluates NCCL and Gloo and
/// supports MPI through the same ProcessGroup API (§3.3); all three are
/// modeled here.
enum class Backend { kNccl, kGloo, kMpi };
const char* BackendName(Backend backend);

/// Analytical latency model for collective operations, standing in for the
/// real NCCL/Gloo/MPI libraries (which need GPUs/NICs we don't have). The
/// model is alpha-beta: `base_latency + steps * step_latency + traffic /
/// bandwidth`, with the ring topology's bottleneck link setting the
/// bandwidth. Each collective's formula is written once, here; a backend
/// supplies its two latencies (through the constructor) and its bandwidths
/// (the two hooks below). Fig 2(a)/(b) shapes (latency-dominated at small
/// tensors, bandwidth-dominated at large) emerge directly.
class CommCostModel {
 public:
  virtual ~CommCostModel() = default;

  /// Ring all-reduce of `bytes` over `world` ranks. `concurrent_groups` is
  /// the number of process groups concurrently sharing the links (the
  /// round-robin configuration of §5.4): a single group may not be able to
  /// saturate a link (per_group_bw_fraction), while k groups split it.
  double AllReduceSeconds(size_t bytes, int world,
                          int concurrent_groups = 1) const;

  /// Algorithm-aware all-reduce pricing. kRing and kTree map to the ring
  /// model above (so existing virtual-time traces are unchanged); kAuto
  /// resolves via SelectAllReduceAlgorithm against this model's topology —
  /// the same resolution ProcessGroupSim's data plane performs, so modeled
  /// time and data movement always agree. kRingChunked prices the
  /// pipelined ring (higher sustained link saturation, a few extra fill
  /// steps), kHalvingDoubling trades bandwidth for 2*ceil(log2 w) latency
  /// steps, and kHierarchical pays NVLink-tier cost intra-host and NIC-tier
  /// cost only for the leader ring.
  double AllReduceSeconds(size_t bytes, int world, int concurrent_groups,
                          CollectiveAlgorithm algorithm) const;

  /// Pipelined binary-tree broadcast of `bytes` from one root.
  double BroadcastSeconds(size_t bytes, int world) const;

  /// Ring all-gather where each rank contributes `per_rank_bytes`.
  double AllGatherSeconds(size_t per_rank_bytes, int world) const;

  /// Tree barrier: up and down a ceil(log2 w)-deep tree, no payload.
  double BarrierSeconds(int world) const;

  Backend backend() const { return backend_; }
  const Topology& topology() const { return topology_; }

 protected:
  /// `base_latency` is the fixed per-collective launch overhead;
  /// `step_overhead` is the per-step protocol cost added to each hop's link
  /// latency.
  CommCostModel(Backend backend, const Topology& topology,
                double base_latency, double step_overhead);

  /// Effective bandwidth of a ring or tree collective moving `bytes` over
  /// `world` ranks while `concurrent_groups` groups share the links.
  virtual double Bandwidth(size_t bytes, int world,
                           int concurrent_groups) const = 0;

  /// The algorithm zoo's other sustained bandwidths for the same call:
  /// the pipelined chunked ring on the same links, and kHierarchical's
  /// intra-host and inter-host (NIC) tiers.
  struct ZooBandwidths {
    double chunked = 0.0;
    double intra_host = 0.0;
    double net = 0.0;
  };
  virtual ZooBandwidths ZooBandwidth(size_t bytes, int world,
                                     int concurrent_groups) const = 0;

 private:
  /// Per-step latency of a ring over `world` ranks: its worst hop plus the
  /// protocol overhead.
  double StepLatency(int world) const;

  Backend backend_;
  Topology topology_;
  double base_latency_;
  double step_overhead_;
};

/// NCCL-like: microsecond launch overhead, low per-hop latency, high
/// bandwidth on NVLink; one group alone achieves only a fraction of the
/// link (motivating round-robin groups, Fig 12).
class NcclCostModel : public CommCostModel {
 public:
  struct Options {
    /// Fixed kernel-launch / enqueue overhead per collective.
    double base_latency = 12e-6;
    /// Extra per-ring-step protocol overhead on top of link latency.
    double step_overhead = 1.5e-6;
    /// Fraction of the bottleneck link one process group can drive when the
    /// ring stays on NVLink inside one host.
    double per_group_bw_fraction_intra = 0.6;
    /// Fraction of the NIC one process group can drive across hosts. Tuned
    /// so ResNet50's gradient all-reduce at 32 GPUs takes about as long as
    /// its backward compute — the regime where the paper reports overlap is
    /// most effective (§5.1) — and so a single group leaves NIC headroom
    /// for round-robin siblings (§5.4).
    double per_group_bw_fraction = 0.2;
    /// When positive, worlds larger than this see their network bandwidth
    /// scaled by `degraded_net_factor` — modeling the paper's slow/congested
    /// shared-entitlement links beyond 128 GPUs (§5.3).
    int degraded_above_world = 0;
    double degraded_net_factor = 0.5;
    /// Sustained fraction of the bottleneck link a *pipelined chunked* ring
    /// achieves (vs the per_group fractions above): with several chunks in
    /// flight per rank the reduce of chunk k overlaps the transfer of chunk
    /// k-1, so a single group keeps the wire nearly saturated.
    double chunked_bw_fraction_intra = 0.95;
    double chunked_bw_fraction = 0.3;
  };

  explicit NcclCostModel(const Topology& topology);
  NcclCostModel(const Topology& topology, const Options& options);

 protected:
  double Bandwidth(size_t bytes, int world,
                   int concurrent_groups) const override;
  ZooBandwidths ZooBandwidth(size_t bytes, int world,
                             int concurrent_groups) const override;

 private:
  /// `link` scaled down for worlds beyond degraded_above_world.
  double Degraded(double link, int world) const;

  Options options_;
};

/// Gloo-like: CPU tensors over TCP — two orders of magnitude higher
/// per-step latency, ~1 GB/s-class bandwidth that saturates near 512 KB
/// messages and degrades mildly for very large messages and very large
/// worlds (matching Fig 2(b) and Fig 9(b)/(d)).
class GlooCostModel : public CommCostModel {
 public:
  explicit GlooCostModel(const Topology& topology);

 protected:
  double Bandwidth(size_t bytes, int world,
                   int concurrent_groups) const override;
  ZooBandwidths ZooBandwidth(size_t bytes, int world,
                             int concurrent_groups) const override;
};

/// MPI-like: host-staged buffers over the fabric. Latency between NCCL and
/// Gloo (optimized progress engine, but kernels cannot write the NIC
/// directly), bandwidth limited by the host staging copy.
class MpiCostModel : public CommCostModel {
 public:
  explicit MpiCostModel(const Topology& topology);

 protected:
  double Bandwidth(size_t bytes, int world,
                   int concurrent_groups) const override;
  ZooBandwidths ZooBandwidth(size_t bytes, int world,
                             int concurrent_groups) const override;
};

/// Factory keyed by backend flavor.
std::unique_ptr<CommCostModel> MakeCostModel(Backend backend,
                                             const Topology& topology);

}  // namespace ddpkit::sim

#endif  // DDPKIT_SIM_COMM_COST_MODEL_H_
