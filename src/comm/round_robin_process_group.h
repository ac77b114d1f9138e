#ifndef DDPKIT_COMM_ROUND_ROBIN_PROCESS_GROUP_H_
#define DDPKIT_COMM_ROUND_ROBIN_PROCESS_GROUP_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "common/status.h"

namespace ddpkit::comm {

/// Composite process group dispatching successive collectives to child
/// groups in round-robin order (paper §3.3 / §5.4). With k children, up to
/// k collectives proceed on independent comm queues — working around the
/// concurrency limits of a single NCCL stream or Gloo thread, at the cost
/// of splitting link bandwidth among the active children.
///
/// Every rank must construct its composite with the same child list order,
/// so dispatch decisions line up across ranks.
///
/// Failover: each dispatched Work is recorded against its child.
/// DrainAndFailover() settles every outstanding Work; children that
/// surfaced a failure are marked unhealthy and skipped by subsequent
/// dispatch, so a transient child-group fault degrades bandwidth instead
/// of killing the job. Health transitions are driven purely by observed
/// Work outcomes (deterministic under a shared FaultPlan), so every rank
/// reaches the same healthy set and rotation stays aligned. Once every
/// child has failed, each collective returns a Work already failed with
/// kInternal and issues nothing on any child.
class RoundRobinProcessGroup : public ProcessGroup {
 public:
  explicit RoundRobinProcessGroup(
      std::vector<std::shared_ptr<ProcessGroup>> groups);

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

  sim::VirtualClock* clock() override { return children_[0].group->clock(); }
  Store* store() override { return children_[0].group->store(); }
  std::string backend_name() const override;

  /// Settles every outstanding Work recorded since the last drain, waiting
  /// with `timeout_seconds` (virtual) per work. Children that produced a
  /// failed or timed-out Work are marked unhealthy and excluded from
  /// future dispatch. Returns OK when everything drained clean, else the
  /// first error observed (dispatch continues on the survivors, if any).
  ///
  /// Generation alignment: kInvalidGeneration failures are generation
  /// retirements, not child faults — the child stays "healthy" (it fails
  /// fast and typed, it does not hang) and is never failed over. Instead,
  /// the highest superseding generation observed across the children is
  /// propagated to ALL of them before returning, so a failover mid-round
  /// can never leave some buckets dispatching at the old generation while
  /// others reject at the new one.
  [[nodiscard]] Status DrainAndFailover(double timeout_seconds = 30.0);

  size_t num_groups() const { return children_.size(); }
  size_t num_healthy_groups() const;

  /// Generation the composite was formed at (the children all match).
  uint64_t generation() const override {
    return children_[0].group->generation();
  }

  /// Highest superseding generation across the children (0 = all live).
  /// Non-zero with some children still live is the transient mid-round
  /// state DrainAndFailover repairs.
  uint64_t superseded_by() const override;

  /// Retires every child uniformly (see ProcessGroup::AbortGroup).
  void AbortGroup(uint64_t new_generation, const std::string& reason) override;

 private:
  struct Child {
    std::shared_ptr<ProcessGroup> group;
    bool healthy = true;
    /// Works dispatched to this child and not yet drained. Pruned of
    /// successfully-completed entries on every dispatch, so it stays
    /// bounded by the collectives genuinely in flight.
    std::vector<WorkHandle> inflight;
  };

  /// Issues `issue(child)` on the next healthy child in rotation and
  /// records its Work for DrainAndFailover; with no healthy child left,
  /// returns a Work already failed with kInternal.
  template <typename Issue>
  [[nodiscard]] WorkHandle Dispatch(Issue issue);

  std::vector<Child> children_;
  size_t next_ = 0;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_ROUND_ROBIN_PROCESS_GROUP_H_
