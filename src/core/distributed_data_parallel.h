#ifndef DDPKIT_CORE_DISTRIBUTED_DATA_PARALLEL_H_
#define DDPKIT_CORE_DISTRIBUTED_DATA_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/process_group.h"
#include "comm/rendezvous.h"
#include "core/reducer.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace ddpkit::core {

/// Inputs to elastic recovery (DistributedDataParallel::Recover). Every
/// survivor of one logical group must pass the same namespace, timeouts,
/// and extra_state key set; the factory runs after the rendezvous settles
/// membership.
struct RecoveryOptions {
  /// Store namespace for the rendezvous keys — typically the group's base
  /// name (SimWorld::RankContext::group_name).
  std::string rendezvous_namespace;
  /// Real-time budget for the survivor rendezvous (see
  /// comm::RendezvousOptions::timeout_seconds).
  double rendezvous_timeout_seconds = 5.0;
  /// Fewest survivors worth re-forming over; below it the rendezvous
  /// returns kTimedOut (a lone survivor cannot data-parallel train).
  int min_world = 2;
  /// Builds the replacement group for the sealed membership. Must mirror
  /// the original group's construction (backend, topology, composite
  /// shape) at the new generation — SimWorld::RankContext::make_group is
  /// exactly this.
  std::function<std::shared_ptr<comm::ProcessGroup>(
      uint64_t generation, int new_rank, int new_world)>
      group_factory;
  /// Extra named tensors resynced from the source rank alongside module
  /// parameters and buffers — pass Optimizer::named_state() here so
  /// momentum/moment buffers stay bit-identical across survivors.
  /// Broadcast in place, in list order; every survivor must pass the same
  /// names, dtypes, and shapes.
  std::vector<std::pair<std::string, Tensor>> extra_state;
};

/// What a completed recovery settled on.
struct RecoveryReport {
  uint64_t generation = 0;
  int new_rank = -1;
  int new_world = 0;
  /// Old rank whose state every survivor adopted (lowest surviving old
  /// rank — new rank 0 by construction).
  int source_old_rank = -1;
  /// Surviving old ranks, ascending; index = new rank.
  std::vector<int> survivors;
};

/// Constructor knobs (paper §4.1 "Configurable Knobs"): process_group,
/// bucket_cap (bucket_cap_mb), and find_unused_parameters — plus extension
/// hooks. Every Reducer knob (see ReducerOptions) is set here and handed to
/// the Reducer as is; collective_timeout_seconds also bounds DDP's own
/// state and buffer broadcasts, and `telemetry` frames additionally get the
/// forward time stamped by DDP.
struct DdpOptions : ReducerOptions {
  /// Broadcast BatchNorm-style buffers from rank 0 before synced forwards
  /// (paper §4.1 "Model Buffers").
  bool broadcast_buffers = true;
};

/// The paper's primary contribution: an nn::Module wrapper that makes
/// distributed data-parallel training non-intrusive (wrap the model, keep
/// the training loop) and interceptive (the constructor inspects
/// parameters; Forward and autograd hooks give the implementation its
/// timing signals).
///
/// Correctness contract (§3): all replicas start from rank 0's parameter
/// and buffer state, and every synced backward leaves every replica holding
/// the same averaged gradients — so independent local optimizers keep the
/// replicas bit-identical.
class DistributedDataParallel : public nn::Module {
 public:
  DistributedDataParallel(std::shared_ptr<nn::Module> module,
                          std::shared_ptr<comm::ProcessGroup> process_group,
                          const DdpOptions& options = DdpOptions());

  /// Wraps the local module's forward (Algorithm 1 lines 8-11): broadcasts
  /// buffers if due, runs the module, then prepares the reducer (graph
  /// traversal / pending-count replenishment).
  Tensor Forward(const Tensor& input) override;

  /// Forward for modules with richer signatures: `fn` must invoke the local
  /// module and return its output tensor.
  template <typename Fn>
  Tensor ForwardWith(Fn&& fn) {
    PreForward();
    Tensor out = fn(*module_);
    PostForward({out});
    return out;
  }

  /// RAII context reproducing the paper's no_sync (§3.2.4): backward passes
  /// inside the scope skip gradient synchronization and accumulate locally;
  /// the first backward after the scope reduces everything.
  class NoSyncGuard {
   public:
    explicit NoSyncGuard(DistributedDataParallel* ddp) : ddp_(ddp) {
      previous_ = ddp_->sync_enabled_;
      ddp_->sync_enabled_ = false;
    }
    ~NoSyncGuard() { ddp_->sync_enabled_ = previous_; }
    NoSyncGuard(const NoSyncGuard&) = delete;
    NoSyncGuard& operator=(const NoSyncGuard&) = delete;

   private:
    DistributedDataParallel* ddp_;
    bool previous_;
  };
  NoSyncGuard no_sync() { return NoSyncGuard(this); }

  nn::Module& module() { return *module_; }
  Reducer& reducer() { return *reducer_; }
  comm::ProcessGroup& process_group() { return *pg_; }

  /// Per-parameter globally-used mask from the last synced backward (all
  /// ones unless find_unused_parameters). Feed to Optimizer::Step(mask) to
  /// keep momentum state untouched for globally-unused parameters.
  const std::vector<uint8_t>& globally_used_mask() const {
    return reducer_->globally_used_mask();
  }

  /// Communication health of this replica: the first error among DDP's own
  /// collectives (state/buffer broadcasts) and the reducer's
  /// (layout-validation desync, gradient all-reduce faults). Non-OK means
  /// gradient synchronization is disabled — training continues locally
  /// until either Recover() re-forms the group over the survivors or the
  /// job restarts from a checkpoint.
  [[nodiscard]] Status sync_status() const {
    return comm_status_.ok() ? reducer_->sync_status() : comm_status_;
  }
  bool sync_disabled() const { return !sync_status().ok(); }

  /// Elastic recovery, stage 1 (DESIGN.md §9): retire the current group
  /// generation, rendezvous with the surviving ranks through the Store,
  /// and swap in the factory-built replacement group. In-flight works on
  /// the old generation fail fast and typed (kInvalidGeneration) — a
  /// straggler still issuing on it can never hang. On success `*result`
  /// (optional) holds the sealed membership. Does NOT resync state: call
  /// Recover() unless you are restoring from a checkpoint yourself.
  /// Failure leaves sync disabled with the returned status.
  [[nodiscard]] Status AbortAndRendezvous(const RecoveryOptions& options,
                                          comm::RendezvousResult* result);

  /// Full elastic recovery (DESIGN.md §9): AbortAndRendezvous, then
  /// deterministic resync — the lowest surviving old rank (new rank 0)
  /// broadcasts its parameters, float32 buffers, and `extra_state`
  /// tensors; the reducer drops the retired group, clears its sync error,
  /// and rebuilds default-layout buckets on the new generation so the
  /// continued run stays bit-exact with a fresh new_world job started from
  /// the source's state. Call between iterations on the rank's own thread
  /// (after backward returned; before Optimizer::Step for the faulted
  /// iteration — that iteration's gradients are incomplete and must be
  /// discarded). Lost work: everything since the last completed optimizer
  /// step on the source.
  [[nodiscard]] Status Recover(const RecoveryOptions& options,
                               RecoveryReport* report = nullptr);

 private:
  void BroadcastInitialState();
  void PreForward();
  void PostForward(const std::vector<Tensor>& outputs);
  /// Records a failed DDP-issued collective (first error wins) and stops
  /// issuing broadcasts.
  void RecordCommFailure(Status status);

  std::shared_ptr<nn::Module> module_;
  std::shared_ptr<comm::ProcessGroup> pg_;
  DdpOptions options_;
  std::unique_ptr<Reducer> reducer_;
  Status comm_status_;
  bool sync_enabled_ = true;
  /// Buffers must be re-broadcast before the next synced forward whenever
  /// the previous synced iteration advanced them (paper §4.1).
  bool buffers_dirty_ = true;
};

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_DISTRIBUTED_DATA_PARALLEL_H_
