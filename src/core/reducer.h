#ifndef DDPKIT_CORE_REDUCER_H_
#define DDPKIT_CORE_REDUCER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "comm/process_group.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/bucketing.h"
#include "core/compression.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "sim/compute_cost_model.h"
#include "tensor/tensor.h"

namespace ddpkit::core {

/// Configuration knobs exposed through the DDP constructor (paper §4.1):
/// bucket_cap_bytes <-> bucket_cap_mb, find_unused_parameters, plus the
/// extension hooks. DdpOptions extends this struct and is handed to the
/// Reducer as is.
///
/// No knob picks the gradient layout: each parameter's .grad is a view of
/// its slot in its bucket, so autograd accumulates straight into bucket
/// memory and averaging a bucket in place averages its gradients. Neither
/// of §4.2's per-backward copies (grads into buckets, averages back) nor a
/// separate gradient copy exists. Views are lazy: a .grad stays undefined
/// until its parameter first gets a gradient; a .grad that is not a view
/// of its slot (the first gradient, a user set_grad) is copied in once and
/// pointed at the slot when the sync completes; a bucket rebuild moves
/// every defined .grad into its new slot.
struct ReducerOptions {
  /// Bucket capacity; 0 means one AllReduce per gradient (the paper's 0 MB
  /// baseline). Default 25 MB per the paper.
  size_t bucket_cap_bytes = 25u << 20;
  /// Capacity of the first-launched bucket; 0 = same as bucket_cap_bytes.
  size_t first_bucket_cap_bytes = 0;
  /// Traverse the autograd graph each forward to proactively mark
  /// parameters outside the iteration's sub-graph (paper §3.2.3) and track
  /// a globally-unused bitmap.
  bool find_unused_parameters = false;
  /// Optional gradient-compression hook (§6.2.3 extension).
  std::shared_ptr<CommHook> comm_hook;
  /// Optional virtual-time charging: when set, each gradient hook advances
  /// the rank's clock by the modeled per-op backward cost, so the real
  /// thread-backed stack produces paper-comparable iteration latencies.
  std::shared_ptr<sim::ComputeCostModel> compute_model;
  /// Optional span recorder: per-gradient compute spans (when a compute
  /// model is attached), per-bucket AllReduce request->completion spans,
  /// flow arrows linking grad-ready -> bucket launch -> completion, and
  /// per-iteration frame markers.
  std::shared_ptr<TraceRecorder> trace;
  /// Optional per-iteration telemetry sink: every synced backward appends
  /// one DDPTelemetry record (Fig 6 breakdown, copy costs, per-bucket
  /// latencies); aborted syncs append a record with synced=false.
  std::shared_ptr<TelemetryLog> telemetry;
  /// Optional metrics registry: finalize-time counters and latency
  /// histograms (ddp.* and reducer.* namespaces).
  std::shared_ptr<MetricsRegistry> metrics;
  /// Per-bucket watchdog (virtual seconds): a bucket AllReduce that takes
  /// longer than this to complete after FinalizeBackward starts waiting
  /// surfaces as a kTimedOut sync_status() instead of blocking forever.
  /// Non-positive disables the watchdog.
  double collective_timeout_seconds = 30.0;
  /// Cross-rank bucket-layout validation at construction: every rank
  /// publishes its bucket signature through the process group's Store and
  /// checks the peers'. A mismatch (desynchronized rebuild, divergent
  /// bucket_cap) is reported through sync_status() naming the offending
  /// rank and bucket, and gradient synchronization is disabled — the
  /// clean-abort alternative to the paper's "incorrect reduction result or
  /// program crash". Skipped when the backend exposes no Store.
  bool validate_bucket_layout = true;
  /// Real-time budget for the validation handshake above.
  double validation_timeout_seconds = 20.0;
};

/// Core gradient-reduction engine (the paper's reducer.cpp, §4.2). Four
/// responsibilities: parameter-to-bucket mapping, autograd post-hooks,
/// in-order asynchronous bucket AllReduce, and globally-unused-parameter
/// tracking. Runs entirely on its rank's thread; cross-rank coordination
/// happens inside the process group.
class Reducer {
 public:
  Reducer(std::vector<Tensor> params,
          std::shared_ptr<comm::ProcessGroup> process_group,
          const ReducerOptions& options);
  ~Reducer();

  Reducer(const Reducer&) = delete;
  Reducer& operator=(const Reducer&) = delete;

  /// Called by DDP::Forward after the local forward pass (Algorithm 1 lines
  /// 8-11). Resets per-iteration state, and — in sync mode with
  /// find_unused_parameters — traverses the graph from `outputs`, marking
  /// out-of-graph parameters ready so their buckets cannot hang.
  /// `will_sync` is false inside no_sync: hooks then only record usage and
  /// let gradients accumulate.
  void PrepareForBackward(const std::vector<Tensor>& outputs, bool will_sync)
      EXCLUDES(mu_);

  /// True once the most recent synced backward has completed its reduction
  /// (all AllReduce waits done, gradients averaged in their buckets).
  bool backward_finalized() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return finalized_;
  }

  /// Communication health. OK while every sync has succeeded. Becomes a
  /// typed error when construction-time validation detects a cross-rank
  /// bucket-layout desync (kFailedPrecondition naming rank and bucket) or
  /// when a synced backward hits a collective fault (kTimedOut /
  /// kInternal, naming the bucket and — when known — the offending rank).
  /// Any non-OK status permanently disables further gradient
  /// synchronization on this replica: backwards still accumulate local
  /// gradients, but no collectives are issued (restart-from-checkpoint is
  /// the recovery path, as with a dead NCCL communicator).
  ///
  /// Gradients of the failed iteration live in their buckets, so a
  /// collective that fails after bytes have moved (a wire fault mid-ring)
  /// can leave them partly reduced. Discard them — zero them or end the
  /// run — before the next Optimizer::Step, as Recover() requires. A
  /// collective that fails before any byte moves (the sim backend's
  /// short-of-participants check) leaves them holding the local
  /// accumulation.
  ///
  /// Like the other const&-returning accessors below, this returns a
  /// reference into reducer state: safe to hold only while no backward /
  /// rebuild is running on another thread (the quiescent-read contract —
  /// callers read between iterations on the rank's own thread).
  const Status& sync_status() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return sync_status_;
  }

  /// True when gradient synchronization has been disabled by an error.
  bool sync_disabled() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return !sync_status_.ok();
  }

  /// Per-parameter "used by any rank since last sync" mask; all ones when
  /// find_unused_parameters is off. Valid after a finalized backward.
  const std::vector<uint8_t>& globally_used_mask() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return globally_used_;
  }

  /// Parameter indices in the order their gradients became ready during
  /// the last synced backward (the §6.2.1 trace).
  const std::vector<size_t>& last_ready_order() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return last_ready_order_;
  }

  /// §6.2.1 extension: re-bucket according to an observed gradient-ready
  /// order. Call between iterations; returns true if the assignment
  /// changed.
  ///
  /// This is a COLLECTIVE operation when the backend exposes a Store and
  /// world > 1: rank 0 broadcasts its last_ready_order() through the Store
  /// and every rank rebuilds from that one order (as PyTorch's
  /// _rebuild_buckets does). Rebuilding from each rank's *local* order
  /// would silently desynchronize bucket layouts whenever hook orders
  /// diverge (jitter, stragglers, divergent control flow) — every later
  /// AllReduce would then mix unrelated parameters. All ranks must call
  /// this the same number of times at the same point in training; a rank
  /// that rebuilds alone surfaces as a typed kTimedOut sync_status() after
  /// validation_timeout_seconds instead of corrupting gradients. After
  /// every coordinated rebuild the cross-rank layout validation handshake
  /// re-runs (validate_bucket_layout).
  bool RebuildBucketsFromTrace() EXCLUDES(mu_);

  /// Elastic-recovery re-init: adopt `new_group` (the shrunken,
  /// rendezvous-formed replacement), drain any in-flight works from the
  /// retired group non-throwingly, clear the sync-disabling error, and
  /// rebuild buckets from the DEFAULT assignment — the layout a freshly
  /// constructed reducer over the same parameters would pick, so a
  /// recovered run stays bit-exact with a fresh run started from the same
  /// state (ring all-reduce summation order depends on bucket chunking).
  /// A fresh Store instance id is allocated and the cross-rank layout
  /// validation handshake re-runs on the new group. Call between
  /// iterations on the rank's own thread (after DDP's recovery broadcasts).
  /// Returns the post-reset sync status.
  [[nodiscard]] Status ResetAfterRecovery(
      std::shared_ptr<comm::ProcessGroup> new_group) EXCLUDES(mu_);

  /// Records the virtual-time cost of the preceding forward pass; consumed
  /// into the next iteration's telemetry frame. Called by the DDP wrapper.
  void RecordForwardSeconds(double seconds) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    pending_forward_seconds_ = seconds;
  }

  /// Per-parameter "used locally since last successful sync" bitmap
  /// (telemetry/introspection; cleared by finalize and by AbortSync).
  const std::vector<uint8_t>& locally_used() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return locally_used_;
  }

  const BucketAssignment& assignment() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return assignment_;
  }
  size_t num_buckets() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return buckets_.size();
  }
  size_t bucket_bytes(size_t b) const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return buckets_[b].bytes;
  }

  struct Stats {
    uint64_t allreduces_launched = 0;
    uint64_t bitmap_allreduces = 0;
    uint64_t bytes_reduced = 0;
    uint64_t rebuilds = 0;
    uint64_t finalized_backwards = 0;
    uint64_t sync_failures = 0;
    /// Wire-byte accounting: what the gradient payload would have cost
    /// uncompressed vs. what the comm hook actually put on the wire. Equal
    /// when no hook is installed.
    uint64_t bytes_wire_raw = 0;
    uint64_t bytes_wire_compressed = 0;
  };
  const Stats& stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  /// Where one parameter's gradient lives: [offset, offset + length) of
  /// its bucket's buffer.
  struct Slot {
    size_t bucket = 0;
    int64_t offset = 0;
    int64_t length = 0;
  };
  struct Bucket {
    Tensor buffer;  // flat float32, same device as its parameters
    size_t pending = 0;
    bool ready = false;
    bool launched = false;
    size_t bytes = 0;
    comm::WorkHandle work;
    CommHook::Launched hook_launched;
    double launch_clock = 0.0;  // for trace spans
  };

  void InstallHooks();
  /// Allocates the buckets for `assignment` and moves every defined .grad
  /// into its new slot; undefined ones stay undefined.
  void InitBuckets(const BucketAssignment& assignment) REQUIRES(mu_);
  /// Store-based cross-rank bucket-signature handshake (see
  /// ReducerOptions::validate_bucket_layout). Sets sync_status_ on desync.
  /// Re-runnable: each invocation uses a fresh epoch of Store keys, so the
  /// handshake repeats after every coordinated bucket rebuild. Holding mu_
  /// across the Store round-trips is deadlock-free: peers answer from
  /// their own reducer instances and never need this rank's mu_.
  void ValidateCrossRankLayout() REQUIRES(mu_);
  /// Flow-arrow id for one bucket of the current iteration, unique across
  /// ranks and iterations.
  uint64_t FlowId(size_t bucket_id) const REQUIRES(mu_);
  /// Appends the current telemetry frame (if a sink is attached and a
  /// synced backward is in flight). `synced` is false on abort paths.
  void EmitTelemetryFrame(bool synced) REQUIRES(mu_);
  /// Records a failed sync: stamps sync_status_ (first error wins),
  /// disables future syncs, and unwinds per-iteration state so the replica
  /// survives to read the diagnostic.
  void AbortSync(Status status) REQUIRES(mu_);
  /// Releases every collective handle a bucket holds (the default-path
  /// AllReduce and all comm-hook works) non-throwingly: a handle whose work
  /// did complete still advances the clock to its completion, everything
  /// else is simply dropped.
  void DrainBucketWorks(Bucket& bucket) REQUIRES(mu_);
  /// The parameter's slot in its bucket, shaped like the parameter: the
  /// tensor its .grad is a view of once attached.
  Tensor SlotView(size_t param_index) REQUIRES(mu_);
  /// True when the parameter's .grad is (already) a view of its slot.
  bool GradIsSlotView(size_t param_index) REQUIRES(mu_);
  void ResetIterationState() REQUIRES(mu_);
  /// Post-hook entry point (Algorithm 1 lines 12-21). Locks mu_ for the
  /// whole hook: autograd fires it on the rank's own backward thread,
  /// which holds no reducer lock at that point.
  void AutogradHook(size_t param_index) EXCLUDES(mu_);
  void MarkParamReady(size_t param_index, bool via_hook) REQUIRES(mu_);
  void MaybeLaunchBuckets() REQUIRES(mu_);
  void LaunchBucket(size_t bucket_id) REQUIRES(mu_);
  /// Waits on the in-flight bucket works while holding mu_. Deadlock-free
  /// by the lock hierarchy (DESIGN.md §8): completing a collective takes
  /// GroupState::mutex and Work::mutex_, never a peer Reducer's mu_.
  void FinalizeBackward() REQUIRES(mu_);

  // Immutable after construction (no guard needed): the parameter set,
  // its metadata, the options block, and the hook liveness token are
  // written once in the constructor and only read afterwards.
  std::vector<Tensor> params_;
  std::vector<ParamMeta> metas_;
  std::unordered_map<const void*, size_t> param_index_;
  ReducerOptions options_;
  std::shared_ptr<bool> alive_;  // guards accumulator hooks against dtor

  /// Guards all mutable reducer state below. Root of this replica's lock
  /// hierarchy: held while calling into the process group (GroupState
  /// mutex, Work mutex, Store mutex are all acquired strictly after it,
  /// never the other way around). See DESIGN.md §8.
  mutable Mutex mu_;

  // Swapped by elastic recovery (ResetAfterRecovery), read everywhere else
  // under mu_: the process-group handle and the Store instance id pairing
  // the Nth reducer across ranks.
  std::shared_ptr<comm::ProcessGroup> pg_ GUARDED_BY(mu_);
  int64_t store_instance_ GUARDED_BY(mu_) = -1;

  BucketAssignment assignment_ GUARDED_BY(mu_);
  std::vector<Bucket> buckets_ GUARDED_BY(mu_);
  /// param_index -> its slot, precomputed at bucket-build time so
  /// MarkParamReady does no scan on the per-gradient hot path.
  std::vector<Slot> param_slots_ GUARDED_BY(mu_);

  // Per-iteration state.
  std::vector<uint8_t> param_ready_ GUARDED_BY(mu_);
  // In-order launch cursor (§3.2.3 rule 1).
  size_t next_bucket_ GUARDED_BY(mu_) = 0;
  bool expect_hooks_ GUARDED_BY(mu_) = false;
  bool armed_ GUARDED_BY(mu_) = false;
  bool finalized_ GUARDED_BY(mu_) = false;
  std::vector<size_t> ready_order_ GUARDED_BY(mu_);

  // Usage tracking (accumulates across no_sync iterations, §3.2.4).
  std::vector<uint8_t> locally_used_ GUARDED_BY(mu_);
  std::vector<uint8_t> globally_used_ GUARDED_BY(mu_);
  // uint8, lives on "CPU" then copied (paper §4.2).
  Tensor used_bitmap_ GUARDED_BY(mu_);

  std::vector<size_t> last_ready_order_ GUARDED_BY(mu_);
  Status sync_status_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);

  // Store-coordination epochs that keep validation and rebuild key
  // namespaces in lockstep across ranks. The *_swept_ cursors track the
  // oldest epoch whose Store keys have not been deleted yet: once a
  // handshake proves every rank has consumed epoch e, everything below e
  // is garbage-collected so long-running jobs keep a bounded key count.
  uint64_t layout_epoch_ GUARDED_BY(mu_) = 0;
  uint64_t rebuild_epoch_ GUARDED_BY(mu_) = 0;
  uint64_t layout_swept_ GUARDED_BY(mu_) = 0;
  uint64_t rebuild_swept_ GUARDED_BY(mu_) = 0;

  // Telemetry state for the in-flight iteration.
  DDPTelemetry frame_ GUARDED_BY(mu_);
  bool frame_active_ GUARDED_BY(mu_) = false;
  double backward_start_clock_ GUARDED_BY(mu_) = 0.0;
  double pending_forward_seconds_ GUARDED_BY(mu_) = 0.0;
  uint64_t iteration_ GUARDED_BY(mu_) = 0;
};

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_REDUCER_H_
