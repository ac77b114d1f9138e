#ifndef DDPKIT_COMM_PROCESS_GROUP_TCP_H_
#define DDPKIT_COMM_PROCESS_GROUP_TCP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/algorithms.h"
#include "comm/net_fault.h"
#include "comm/process_group.h"
#include "comm/store.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ddpkit::comm {

/// ProcessGroup over real nonblocking TCP sockets — the production backend
/// the paper's stack assumes (Gloo/NCCL bootstrapped through a store,
/// §3.3). One process per rank; rendezvous through any comm::Store (in
/// practice a StoreClientTcp pointed at the launcher's StoreServerTcp).
///
/// Bootstrap: each rank binds port 0 (collision-proof), publishes
/// `pgtcp/<name>/g<generation>/rank<r>` = host:port, connects to every
/// lower rank and accepts from every higher one, then keeps the full mesh
/// cached for the group's lifetime. Both sides of a fresh connection apply
/// one HELLO rule (CheckHello), and bootstrap and supervisor re-mesh run
/// the same mesh round (RemeshLocked).
///
/// One link: every byte to and from a peer goes through a
/// WireFaultInjector — Options::fault_injector, or a plan-less one the
/// group owns, which forwards every call unchanged — so there is no
/// raw-socket branch, and every collective (Barrier included) runs through
/// one Run.
///
/// Data plane: each collective runs this rank's step program from
/// comm/algorithms.h — the same program ProcessGroupSim's in-memory
/// executor runs for every rank — so a TCP run is bit-identical to the
/// simulator by construction, for every algorithm including kHierarchical
/// (`ranks_per_node` places the node boundaries on the flat mesh) and kAuto.
/// The (collective, dtype, op) support table and shape rules are checked at
/// issue time, before any byte moves. Collectives execute synchronously in
/// the calling thread (localhost latencies make overlap machinery pure
/// complexity here); the returned Work is already terminal and carries the
/// typed verdict.
///
/// Failure taxonomy: Run maps the wire's Status once to the caller's code.
///   deadline elapsed (kTimedOut)           → kTimedOut
///   header mismatch (kInvalidArgument)     → kFailedPrecondition
///   abort pipe fired (kFailedPrecondition) → kInvalidGeneration
///   peer closed / reset, failed re-mesh    → kInternal
/// Every failure but the abort poisons the group: later collectives fail
/// fast with kInternal.
///
/// Self-healing (DESIGN.md §14): with `max_reconnect_attempts` > 0 a
/// connection supervisor classifies wire failures. Transient ones (peer
/// reset, deadline elapsed) trigger close + backoff + a full re-mesh at
/// the *same* generation — addresses republished, HELLO re-handshake
/// carrying the in-flight sequence number — and a byte-transparent replay
/// of the interrupted collective from its snapshotted input. Fatal ones
/// (generation/resume mismatch, abort) and exhausted budgets poison the
/// group and surface the existing typed errors, feeding the elastic
/// DDP::Recover path. An optional heartbeat thread probes every mesh link
/// on a second socket channel, feeding `pg.heartbeat_misses`; reconnect
/// rounds feed `pg.reconnects`.
///
/// After an unrecovered wire failure the group is poisoned (streams may
/// be desynchronized): later collectives fail fast with kInternal.
/// AbortGroup(new_gen) wakes any in-flight poll via the abort pipe and
/// closes all peer sockets, which unblocks stranded remote peers with
/// kInternal on their side.
class ProcessGroupTcp : public ProcessGroup {
 public:
  struct Options {
    Algorithm algorithm = Algorithm::kRing;
    /// Wall-clock deadline for one collective's wire I/O. Unlike the sim
    /// backend's virtual-time watchdog, this must be real time: a kill -9'd
    /// peer stops making progress in real time only.
    double collective_timeout_seconds = 30.0;
    /// Wall-clock budget for the bootstrap (store publish + full mesh).
    double connect_timeout_seconds = 30.0;
    /// Address this rank binds and publishes (the launcher runtime is
    /// localhost by design).
    std::string host = "127.0.0.1";
    /// Host-major ranks per node: kHierarchical's node boundaries and the
    /// kAuto resolution (0 = 8, the sim topology's default).
    int ranks_per_node = 0;
    /// Optional metrics sink (pg.* namespace, issue-side counters).
    std::shared_ptr<MetricsRegistry> metrics;
    /// Elastic-recovery generation (namespaces the rendezvous keys, so a
    /// regrouped world bootstraps a fresh mesh).
    uint64_t generation = 0;

    /// Optional wire-fault shim. Owned by the caller and shared across
    /// group incarnations (one per *process*, so sticky fault state —
    /// activated partitions, heal hit counts — survives regeneration).
    /// Null = the group's own plan-less link, which injects nothing.
    WireFaultInjector* fault_injector = nullptr;
    /// Connection supervisor: > 0 enables transient-failure self-healing
    /// (close + backoff + same-generation re-mesh + in-flight collective
    /// replay), up to this many re-mesh rounds per collective. 0 keeps the
    /// legacy poison-on-first-failure behaviour.
    int max_reconnect_attempts = 0;
    /// Wall budget for one re-mesh round (republish + full mesh + HELLO).
    double reconnect_timeout_seconds = 2.0;
    /// Backoff before the first re-mesh round; doubles per round (wall
    /// clock — peers live in other processes).
    double reconnect_backoff_seconds = 0.05;
    /// > 0 starts a heartbeat thread probing every mesh link at this
    /// period over a dedicated socket channel. 0 disables probing.
    double heartbeat_interval_seconds = 0.0;
    /// Silent intervals on a link before it counts one heartbeat miss.
    int heartbeat_miss_intervals = 3;
    /// Optional supervisor event sink ("pg.reconnect", "pg.heartbeat_miss"
    /// instants; the caller can forward them to a trace recorder). Called
    /// with the group lock held — must not call back into the group.
    std::function<void(const std::string& event, const std::string& detail)>
        event_sink;
  };

  /// Rendezvous constructor: blocks until the full mesh is up, within the
  /// connect timeout. `store` and `clock` must outlive the group. Typed
  /// failures: kTimedOut when a peer never publishes/connects, kInternal
  /// for a malformed published address.
  [[nodiscard]] static Result<std::shared_ptr<ProcessGroupTcp>> Create(
      Store* store, const std::string& name, int rank, int world,
      const Options& options, sim::VirtualClock* clock);

  ~ProcessGroupTcp() override;

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
  Algorithm algorithm() const { return options_.algorithm; }

  uint64_t generation() const override { return options_.generation; }
  uint64_t superseded_by() const override { return superseded_by_.load(); }

  /// Retires this group: wakes any in-flight socket poll (abort pipe),
  /// then closes every peer socket so remote peers blocked on us observe
  /// EOF (kInternal) instead of hanging. Idempotent.
  void AbortGroup(uint64_t new_generation, const std::string& reason) override;

  /// Total number of collectives this rank has issued.
  uint64_t ops_issued() const { return next_seq_.load(); }

  /// Successful supervisor re-mesh rounds (mirrors the pg.reconnects
  /// counter, readable without a metrics registry).
  uint64_t reconnects() const { return reconnects_.load(); }
  /// Heartbeat misses observed on this rank's links.
  uint64_t heartbeat_misses() const { return heartbeat_misses_.load(); }

  /// Per-collective wire header, exchanged with the ring neighbours before
  /// payload bytes move; disagreement is the typed kFailedPrecondition arm.
  /// Defined in the .cc.
  struct OpHeader;
  /// Everything the socket executor (free functions in the .cc) needs for
  /// one collective's I/O; public only so they can name it.
  struct OpContext;

 private:
  ProcessGroupTcp(Store* store, std::string name, int rank, int world,
                  const Options& options, sim::VirtualClock* clock);

  /// The connection handshake frame, defined in the .cc.
  struct Hello;

  /// The HELLO rule, the same on both sides of a fresh connection: a frame
  /// that is not a HELLO from a peer in [peer_lo, peer_hi) on a channel in
  /// [channel_lo, channel_hi) is dropped (kInternal); another generation is
  /// fatal (kInvalidGeneration); another resume_seq emits
  /// pg.resume_mismatch, paces 5 ms and is dropped (kInternal). The caller
  /// closes a dropped connection and retries.
  [[nodiscard]] Status CheckHello(const Hello& theirs, int peer_lo,
                                  int peer_hi, uint32_t channel_lo,
                                  uint32_t channel_hi, uint64_t resume_seq);

  /// Builds the full mesh (listen, publish, connect/accept + HELLO) into
  /// `*data_fds` (+ `*hb_fds` when heartbeats are enabled), re-usable for
  /// both bootstrap (resume_seq 0) and supervisor re-mesh rounds.
  [[nodiscard]] Status BuildMesh(uint64_t resume_seq, const Deadline& deadline,
                                 std::vector<int>* data_fds,
                                 std::vector<int>* hb_fds);

  /// Initial bootstrap: abort pipe + mesh rounds (RemeshLocked at
  /// resume_seq 0, retried when supervised) + heartbeat thread.
  [[nodiscard]] Status Bootstrap();

  /// One mesh round at the current generation, within `deadline`: closes
  /// the old mesh, republishes this rank's address, rebuilds both channels,
  /// re-handshakes with `resume_seq` consensus and resets the heartbeat
  /// state. Bootstrap and supervisor re-mesh rounds both run it.
  [[nodiscard]] Status RemeshLocked(uint64_t resume_seq,
                                    const Deadline& deadline) REQUIRES(mu_);

  /// Heartbeat thread body: probe every link each interval, drain pongs,
  /// count misses.
  void SupervisorLoop();

  bool supervised() const {
    return options_.max_reconnect_attempts > 0 && world() > 1;
  }

  void EmitEvent(const char* event, const std::string& detail);

  /// Runs this rank's step `program` for collective `kind` over `data`
  /// (mutated, `data_bytes` long) and `input` (read-only, may be null): the
  /// sequence-number bump, the neighbour header exchange, wall-deadline
  /// setup, supervisor retry (snapshotting `data` so a replay starts from
  /// the original bytes), error mapping, and Work termination. Every
  /// collective, Barrier included, runs through here.
  [[nodiscard]] WorkHandle Run(Collective kind, DType dtype, int64_t numel,
                               int root, ReduceOp op, const Program& program,
                               void* data, const void* input,
                               size_t data_bytes);

  /// Checks one collective at issue time, builds this rank's step program
  /// and runs it through Run. `tensor` and `output` follow
  /// RejectInvalidCollective.
  [[nodiscard]] WorkHandle Issue(Collective kind, ReduceOp op, int root,
                                 const Tensor& tensor, Tensor output);

  [[nodiscard]] Status ExchangeHeaders(const OpHeader& mine,
                                       const OpContext& ctx);

  Options options_;
  std::string name_;
  Store* store_;
  sim::VirtualClock* clock_;
  /// The plan-less link a group owns when Options::fault_injector is null.
  WireFaultInjector own_link_;
  /// Every byte to and from a peer goes through this link: the caller's
  /// fault injector, or own_link_. Never null.
  WireFaultInjector* const link_;

  /// Serializes collectives and guards the socket mesh. AbortGroup writes
  /// the wake pipe *before* taking this lock, so an in-flight collective
  /// wakes, fails typed, and releases it.
  Mutex mu_;
  std::vector<int> peer_fds_ GUARDED_BY(mu_);  // rank -> fd, own rank = -1
  /// Heartbeat channel mesh (empty when probing is disabled).
  std::vector<int> hb_fds_ GUARDED_BY(mu_);
  // ddplint: allow(banned-nondeterminism) reason: peer liveness is a
  // wall-clock property of the real TCP mesh; the sim backend (where
  // reproducibility lives) never starts the prober.
  std::vector<std::chrono::steady_clock::time_point> hb_last_recv_
      GUARDED_BY(mu_);
  std::vector<bool> hb_missing_ GUARDED_BY(mu_);
  bool wire_failed_ GUARDED_BY(mu_) = false;
  std::string wire_failure_reason_ GUARDED_BY(mu_);

  /// Abort pipe: AbortGroup writes `wake_wfd_`; every poll in a collective
  /// includes `wake_rfd_`. Never drained — once aborted, always aborted.
  int wake_rfd_ = -1;
  int wake_wfd_ = -1;

  /// Supervisor stop pipe (destructor -> heartbeat thread), distinct from
  /// the abort pipe so a clean teardown is not an abort.
  int sup_stop_rfd_ = -1;
  int sup_stop_wfd_ = -1;
  std::thread hb_thread_;

  std::atomic<uint64_t> superseded_by_{0};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> heartbeat_misses_{0};
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_PROCESS_GROUP_TCP_H_
