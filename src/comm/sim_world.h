#ifndef DDPKIT_COMM_SIM_WORLD_H_
#define DDPKIT_COMM_SIM_WORLD_H_

#include <functional>
#include <memory>

#include "comm/process_group_sim.h"
#include "comm/round_robin_process_group.h"
#include "comm/store.h"
#include "common/rng.h"
#include "sim/virtual_clock.h"

namespace ddpkit::comm {

/// Launch options for a simulated multi-process world.
struct SimWorldOptions {
  sim::Backend backend = sim::Backend::kNccl;
  Algorithm algorithm = Algorithm::kRing;
  sim::Topology topology = sim::Topology();
  /// >1 wraps the rank's groups in a RoundRobinProcessGroup (§5.4).
  int round_robin_groups = 1;
  uint64_t seed = 1234;
  /// Deterministic fault schedule shared by every rank (and, with
  /// round-robin, by every child group). Null = fault-free.
  std::shared_ptr<const FaultPlan> fault_plan;
  /// Fault schedule for groups re-formed through RankContext::make_group
  /// after an elastic recovery. Defaults to null (the replacement
  /// generation runs fault-free): collective sequence numbers restart at 0
  /// in a new group, so reusing `fault_plan` would replay the same faults
  /// against the survivors. Set this to chain failures across generations.
  std::shared_ptr<const FaultPlan> recovery_fault_plan;
  /// Watchdog applied when the fault plan leaves a collective short of
  /// participants (see ProcessGroupSim::Options).
  double collective_timeout_seconds = 30.0;
  /// Optional metrics registry shared by every rank's process group (pg.*
  /// namespace; see ProcessGroupSim::Options::metrics).
  std::shared_ptr<MetricsRegistry> metrics;
};

/// Test/example harness standing in for `torchrun`: spawns one thread per
/// rank, rendezvous a process group (or a round-robin composite) through a
/// shared Store, runs the given body, and joins. Each rank gets its own
/// virtual clock and a deterministic per-rank RNG stream.
class SimWorld {
 public:
  struct RankContext {
    int rank = 0;
    int world = 1;
    std::shared_ptr<ProcessGroup> process_group;
    sim::VirtualClock* clock = nullptr;
    Store* store = nullptr;
    Rng rng{0};
    /// This world's unique base group name — the rendezvous namespace for
    /// elastic recovery (rendezvous/<group_name>/g<generation>/... keys).
    std::string group_name;
    /// Re-forms this rank's process group at `generation` over a shrunken
    /// world, mirroring the original construction (same backend options and
    /// round-robin shape; the fault plan comes from
    /// SimWorldOptions::recovery_fault_plan). Blocks until all `new_world`
    /// survivors call it — pass it as the group factory to DDP recovery. A
    /// rank whose body simply returns after a crash never calls it: a
    /// SimWorld "process" dies by leaving its rank function.
    std::function<std::shared_ptr<ProcessGroup>(
        uint64_t generation, int new_rank, int new_world)>
        make_group;
  };

  using RankFn = std::function<void(RankContext&)>;

  /// Blocks until every rank's body returns.
  static void Run(int world, const SimWorldOptions& options, RankFn fn);

  /// Convenience overload with default options.
  static void Run(int world, RankFn fn) { Run(world, SimWorldOptions(), fn); }
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_SIM_WORLD_H_
