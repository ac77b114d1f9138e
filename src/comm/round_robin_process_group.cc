#include "comm/round_robin_process_group.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace ddpkit::comm {

RoundRobinProcessGroup::RoundRobinProcessGroup(
    std::vector<std::shared_ptr<ProcessGroup>> groups)
    : ProcessGroup(groups.empty() ? 0 : groups[0]->rank(),
                   groups.empty() ? 1 : groups[0]->world()) {
  // ddplint: allow(check-in-comm) composite-group construction precondition
  // at setup time; no collective is in flight yet.
  DDPKIT_CHECK(!groups.empty());
  children_.reserve(groups.size());
  for (auto& g : groups) {
    // ddplint: allow(check-in-comm) setup precondition (see above).
    DDPKIT_CHECK_EQ(g->rank(), rank());
    // ddplint: allow(check-in-comm) setup precondition (see above).
    DDPKIT_CHECK_EQ(g->world(), world());
    Child child;
    child.group = std::move(g);
    children_.push_back(std::move(child));
  }
}

template <typename Issue>
WorkHandle RoundRobinProcessGroup::Dispatch(Issue issue) {
  // Skip unhealthy children; rotation state advances identically on every
  // rank because health flags are derived from shared Work outcomes.
  for (size_t hops = 0; hops < children_.size(); ++hops) {
    Child& c = children_[next_];
    next_ = (next_ + 1) % children_.size();
    if (!c.healthy) continue;
    // Opportunistic prune: drop works that already completed successfully
    // so the in-flight list tracks only live or failed handles.
    std::erase_if(c.inflight,
                  [](const WorkHandle& w) { return w->IsCompleted(); });
    c.inflight.push_back(issue(*c.group));
    return c.inflight.back();
  }
  // Failover already exhausted every child (DrainAndFailover returned each
  // typed error first): fail typed, issuing nothing.
  return FailedWork(Status::Internal(backend_name() +
                                     ": no healthy child group left to "
                                     "dispatch to"),
                    clock()->Now());
}

WorkHandle RoundRobinProcessGroup::AllReduce(Tensor tensor, ReduceOp op) {
  return Dispatch([&](ProcessGroup& g) {
    return g.AllReduce(std::move(tensor), op);
  });
}

WorkHandle RoundRobinProcessGroup::Broadcast(Tensor tensor, int root) {
  return Dispatch([&](ProcessGroup& g) {
    return g.Broadcast(std::move(tensor), root);
  });
}

WorkHandle RoundRobinProcessGroup::AllGather(const Tensor& input,
                                             Tensor output) {
  return Dispatch([&](ProcessGroup& g) {
    return g.AllGather(input, std::move(output));
  });
}

WorkHandle RoundRobinProcessGroup::Reduce(Tensor tensor, int root,
                                          ReduceOp op) {
  return Dispatch([&](ProcessGroup& g) {
    return g.Reduce(std::move(tensor), root, op);
  });
}

WorkHandle RoundRobinProcessGroup::ReduceScatter(const Tensor& input,
                                                 Tensor output,
                                                 ReduceOp op) {
  return Dispatch([&](ProcessGroup& g) {
    return g.ReduceScatter(input, std::move(output), op);
  });
}

WorkHandle RoundRobinProcessGroup::Gather(const Tensor& input, Tensor output,
                                          int root) {
  return Dispatch([&](ProcessGroup& g) {
    return g.Gather(input, std::move(output), root);
  });
}

void RoundRobinProcessGroup::Barrier() {
  // Barrier must synchronize all (healthy) queues, not just the next one
  // in rotation.
  bool synchronized = false;
  for (Child& c : children_) {
    if (!c.healthy) continue;
    c.group->Barrier();
    synchronized = true;
  }
  // Barrier has no error channel (as in ProcessGroupTcp::Barrier), so a
  // barrier with no healthy child left to run it is logged, not silent.
  if (!synchronized) {
    DDPKIT_LOG(Error) << "[" << backend_name() << " rank " << rank()
                      << "] barrier failed: no healthy child group left";
  }
}

Status RoundRobinProcessGroup::DrainAndFailover(double timeout_seconds) {
  Status first_error = Status::OK();
  for (Child& c : children_) {
    for (WorkHandle& work : c.inflight) {
      const Status st = work->Wait(clock(), timeout_seconds);
      if (!st.ok()) {
        // A generation retirement is not a child fault: the child fails
        // fast and typed rather than hanging, so excluding it from the
        // rotation (and eventually failing every dispatch with zero healthy
        // children) would be wrong. Alignment happens below.
        if (st.code() != StatusCode::kInvalidGeneration) c.healthy = false;
        if (first_error.ok()) first_error = st;
      }
    }
    c.inflight.clear();
  }

  // Generation alignment: if any child was retired (a recovery elsewhere
  // aborted it, possibly mid-round), retire every child to the same —
  // highest — superseding generation before anything else dispatches.
  // Without this, rotation would keep feeding buckets to the remaining
  // old-generation children while others reject, mixing generations
  // across one logical iteration's buckets.
  const uint64_t superseding = superseded_by();
  if (superseding != 0) {
    AbortGroup(superseding,
               "round-robin generation alignment after partial retirement");
    if (first_error.ok()) {
      first_error = Status::InvalidGeneration(
          "round-robin composite retired: a child group was superseded by "
          "generation " + std::to_string(superseding));
    }
  }
  return first_error;
}

uint64_t RoundRobinProcessGroup::superseded_by() const {
  uint64_t highest = 0;
  for (const Child& c : children_) {
    highest = std::max(highest, c.group->superseded_by());
  }
  return highest;
}

void RoundRobinProcessGroup::AbortGroup(uint64_t new_generation,
                                        const std::string& reason) {
  // Uniform retirement: every child — healthy, unhealthy, or already
  // retired (idempotent) — moves to the same superseding generation, so no
  // dispatch order can observe a mixed-generation composite afterwards.
  for (Child& c : children_) {
    c.group->AbortGroup(new_generation, reason);
  }
}

size_t RoundRobinProcessGroup::num_healthy_groups() const {
  size_t n = 0;
  for (const Child& c : children_) n += c.healthy ? 1 : 0;
  return n;
}

std::string RoundRobinProcessGroup::backend_name() const {
  return "round_robin[" + children_[0].group->backend_name() + " x " +
         std::to_string(children_.size()) + "]";
}

}  // namespace ddpkit::comm
