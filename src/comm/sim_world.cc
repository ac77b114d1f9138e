#include "comm/sim_world.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"

namespace ddpkit::comm {

namespace {
std::atomic<uint64_t> g_world_counter{0};
}  // namespace

void SimWorld::Run(int world, const SimWorldOptions& options, RankFn fn) {
  // ddplint: allow(check-in-comm) test-harness precondition before any rank
  // thread (or collective) exists.
  DDPKIT_CHECK_GT(world, 0);
  // ddplint: allow(check-in-comm) test-harness precondition (see above).
  DDPKIT_CHECK_GE(options.round_robin_groups, 1);

  const std::string base_name =
      "world_" + std::to_string(g_world_counter.fetch_add(1));

  Store store;
  std::vector<sim::VirtualClock> clocks(static_cast<size_t>(world));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world));

  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ProcessGroupSim::Options pg_options;
      pg_options.flavor = options.backend;
      pg_options.algorithm = options.algorithm;
      pg_options.topology = options.topology;
      pg_options.concurrent_groups = options.round_robin_groups;
      pg_options.fault_plan = options.fault_plan;
      pg_options.collective_timeout_seconds =
          options.collective_timeout_seconds;
      pg_options.metrics = options.metrics;

      RankContext ctx;
      ctx.rank = r;
      ctx.world = world;
      ctx.clock = &clocks[static_cast<size_t>(r)];
      ctx.store = &store;
      ctx.rng = Rng(options.seed * 1000003ULL + static_cast<uint64_t>(r));
      ctx.group_name = base_name;

      // Builds this rank's group `name`: one ProcessGroupSim, or a
      // RoundRobinProcessGroup over `name`_rr0, _rr1, ...
      sim::VirtualClock* clock = ctx.clock;
      Store* store_ptr = &store;
      const int rr_groups = options.round_robin_groups;
      auto build = [clock, store_ptr, rr_groups](
                       const std::string& name, int rank, int size,
                       const ProcessGroupSim::Options& pg)
          -> std::shared_ptr<ProcessGroup> {
        if (rr_groups == 1) {
          return ProcessGroupSim::Create(store_ptr, name, rank, size, pg,
                                         clock);
        }
        std::vector<std::shared_ptr<ProcessGroup>> children;
        for (int g = 0; g < rr_groups; ++g) {
          children.push_back(ProcessGroupSim::Create(
              store_ptr, name + "_rr" + std::to_string(g), rank, size, pg,
              clock));
        }
        return std::make_shared<RoundRobinProcessGroup>(std::move(children));
      };

      // Factory for recovery-formed generations: same backend shape as the
      // original group, named per generation so each regroup is a fresh
      // Store/registry rendezvous among exactly the survivors.
      auto recovery_plan = options.recovery_fault_plan;
      ctx.make_group = [build, pg_options, base_name, recovery_plan](
                           uint64_t generation, int new_rank, int new_world) {
        ProcessGroupSim::Options regroup_options = pg_options;
        regroup_options.fault_plan = recovery_plan;
        regroup_options.generation = generation;
        return build(base_name + "/g" + std::to_string(generation), new_rank,
                     new_world, regroup_options);
      };
      ctx.process_group = build(base_name, r, world, pg_options);

      fn(ctx);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace ddpkit::comm
