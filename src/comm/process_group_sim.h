#ifndef DDPKIT_COMM_PROCESS_GROUP_SIM_H_
#define DDPKIT_COMM_PROCESS_GROUP_SIM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/algorithms.h"
#include "comm/fault_plan.h"
#include "comm/process_group.h"
#include "comm/store.h"
#include "common/barrier.h"
#include "common/metrics.h"
#include "sim/comm_cost_model.h"
#include "sim/topology.h"

namespace ddpkit::comm {

namespace internal {
struct GroupState;
}  // namespace internal

/// Simulated collective backend over shared-memory rank threads.
///
/// Data plane: real — contributions are combined with the selected
/// algorithm (ring by default), bit-deterministically.
/// Time plane: modeled — a collective starts at the max of participant
/// arrival clocks (synchronized semantics, §2.3), is serialized behind
/// earlier collectives of the same group on a single *comm queue* (the
/// dedicated CUDA stream NCCL groups use, §3.3), and completes after the
/// backend cost model's duration. Rank clocks advance on Work::Wait.
///
/// Construction is a rendezvous: every rank calls Create with the same
/// store/name/world, and all block until the last rank joins.
class ProcessGroupSim : public ProcessGroup {
 public:
  struct Options {
    sim::Backend flavor = sim::Backend::kNccl;
    Algorithm algorithm = Algorithm::kRing;
    sim::Topology topology = sim::Topology();
    /// Number of sibling groups concurrently sharing the links (set by
    /// RoundRobinProcessGroup; affects modeled bandwidth only).
    int concurrent_groups = 1;
    /// Deterministic fault schedule shared by all ranks of the group (pass
    /// the same plan to every rank's Create). Null = fault-free.
    std::shared_ptr<const FaultPlan> fault_plan;
    /// Virtual-time watchdog: when a fault plan makes a rank miss a
    /// collective, peers' Work fails kTimedOut/kInternal this many
    /// virtual seconds after the last live participant arrived.
    double collective_timeout_seconds = 30.0;
    /// Optional metrics sink (pg.* namespace): per-rank op/byte counters at
    /// issue time, and — recorded once per collective by the last-arriving
    /// rank — queue-delay and duration histograms plus failure counters.
    /// Pass the same registry to every rank (the group adopts the first
    /// non-null one for the collective-level metrics).
    std::shared_ptr<MetricsRegistry> metrics;
    /// Elastic-recovery generation this group is formed at (0 for normal
    /// startup; rendezvous-formed replacement groups carry the generation
    /// the survivors agreed on). All ranks must pass the same value.
    uint64_t generation = 0;
  };

  /// Rendezvous constructor: blocks until all `world` ranks have called
  /// Create with the same `name`. `clock` must outlive the group.
  static std::shared_ptr<ProcessGroupSim> Create(Store* store,
                                                 const std::string& name,
                                                 int rank, int world,
                                                 const Options& options,
                                                 sim::VirtualClock* clock);

  ~ProcessGroupSim() override;

  [[nodiscard]] WorkHandle AllReduce(Tensor tensor, ReduceOp op) override;
  [[nodiscard]] WorkHandle Broadcast(Tensor tensor, int root) override;
  [[nodiscard]] WorkHandle AllGather(const Tensor& input,
                                     Tensor output) override;
  [[nodiscard]] WorkHandle Reduce(Tensor tensor, int root,
                                  ReduceOp op) override;
  [[nodiscard]] WorkHandle ReduceScatter(const Tensor& input, Tensor output,
                                         ReduceOp op) override;
  [[nodiscard]] WorkHandle Gather(const Tensor& input, Tensor output,
                                  int root) override;
  void Barrier() override;

  sim::VirtualClock* clock() override { return clock_; }
  Store* store() override { return store_; }
  std::string backend_name() const override;

  const sim::CommCostModel& cost_model() const;
  Algorithm algorithm() const { return options_.algorithm; }

  /// Total number of collectives this rank has issued.
  uint64_t ops_issued() const { return next_seq_; }

  uint64_t generation() const override { return options_.generation; }
  uint64_t superseded_by() const override;

  /// Marks the shared group state superseded by `new_generation`: every
  /// in-flight collective fails kInvalidGeneration immediately and every
  /// later Contribute (from any rank handle of this group — including a
  /// straggler that missed the rendezvous) fails fast the same way.
  /// Idempotent across the survivors' concurrent calls.
  void AbortGroup(uint64_t new_generation, const std::string& reason) override;

 private:
  ProcessGroupSim(std::shared_ptr<internal::GroupState> state, int rank,
                  int world, const Options& options, sim::VirtualClock* clock,
                  Store* store);

  /// Checks one collective at issue time, prices it with the group's cost
  /// model and contributes it. `tensor` and `output` follow
  /// RejectInvalidCollective.
  [[nodiscard]] WorkHandle Issue(Collective kind, ReduceOp op, int root,
                                 const Tensor& tensor, Tensor output);

  std::shared_ptr<internal::GroupState> state_;
  Options options_;
  sim::VirtualClock* clock_;
  Store* store_ = nullptr;
  uint64_t next_seq_ = 0;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_PROCESS_GROUP_SIM_H_
