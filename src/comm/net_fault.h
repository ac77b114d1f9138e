#ifndef DDPKIT_COMM_NET_FAULT_H_
#define DDPKIT_COMM_NET_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "comm/fault_plan.h"
#include "comm/net_socket.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ddpkit::comm {

/// Fault-injecting transport shim over the part of the comm/net_socket.h
/// surface ProcessGroupTcp uses, and that group's only way to a peer. A
/// chaos run shares one injector per process (not per group): it carries
/// the sticky activation and heal state that must survive group
/// regeneration, so a persistent partition keeps biting across
/// elastic-recovery generations. With a null plan every call forwards
/// straight to the underlying helper; a group given no injector owns such
/// a plan-less one as its link.
///
/// Faults are consulted on the *initiating* side only: a one-way partition
/// src -> dst manifests as src's sends blackholing (and its connects
/// timing out); dst simply starves, exactly as an iptables DROP would
/// behave. The receive path never consults the plan — injecting there
/// would desynchronize byte streams the sender actually delivered.
///
/// Determinism: fault decisions depend only on (plan, self rank, peer,
/// current op index, per-link hit counts) — never on wall time — so a run
/// with the same plan and schedule of shim calls replays bit-for-bit.
///
/// Thread safety: all entry points are safe to call concurrently (the
/// supervisor's heartbeat thread shares the injector with the collective
/// path).
class WireFaultInjector {
 public:
  /// `plan` may be null (transparent shim) and must outlive the injector.
  WireFaultInjector(const WireFaultPlan* plan, int self_rank);

  WireFaultInjector(const WireFaultInjector&) = delete;
  WireFaultInjector& operator=(const WireFaultInjector&) = delete;

  int self_rank() const { return self_; }
  const WireFaultPlan* plan() const { return plan_; }

  /// Stamps the op index (collective sequence number) fault windows are
  /// keyed on. The process group calls this at the start of every
  /// collective; bootstrap/re-mesh traffic runs under the last stamp.
  void set_op_index(uint64_t op) { op_index_.store(op); }
  uint64_t op_index() const { return op_index_.load(); }

  /// Blackholed operations counted against the (self, peer) link so far —
  /// the heal clock for partitions with heal_after_hits > 0.
  uint64_t link_hits(int peer) const;

  /// Total faults this injector has served (all kinds; for assertions).
  uint64_t faults_injected() const;

  /// True when a send self -> peer would currently be blackholed.
  bool SendPartitioned(int peer) const;

  // --- the net_socket surface, per-link ----------------------------------
  // A send's `peer` names the remote rank the fd is connected to; it keys
  // the fault lookup, the fd still carries the bytes. Receives take no peer:
  // they never consult the plan (the sender's shim did the damage, and
  // injecting here would desynchronize delivered byte streams).

  [[nodiscard]] Status SendAll(int peer, int fd, const void* data, size_t len,
                               const Deadline& deadline, int abort_fd = -1);

  [[nodiscard]] Status RecvAll(int fd, void* data, size_t len,
                               const Deadline& deadline, int abort_fd = -1);

  [[nodiscard]] Status SendRecvAll(int send_peer, int send_fd,
                                   const void* send_buf, size_t send_len,
                                   int recv_fd, void* recv_buf,
                                   size_t recv_len, const Deadline& deadline,
                                   int abort_fd = -1);

  [[nodiscard]] Result<int> AcceptWithDeadline(int listen_fd,
                                               const Deadline& deadline,
                                               int abort_fd = -1);

  /// A connect consults both directions: the SYN rides self -> peer, the
  /// SYN-ACK peer -> self, so either partition kills the handshake.
  [[nodiscard]] Result<int> ConnectWithDeadline(int peer,
                                                const std::string& host,
                                                int port,
                                                const Deadline& deadline,
                                                int abort_fd = -1);

  /// Heartbeat probe: consults partitions (a dead link must starve the
  /// peer's detector) but never counts a heal hit and never consumes the
  /// one-shot reset/truncation faults — probes must not perturb the
  /// deterministic heal schedule of the data plane.
  [[nodiscard]] Status Heartbeat(int peer, int fd, const void* data,
                                 size_t len, const Deadline& deadline);

 private:
  /// Per-direction sticky fault state (keyed (src, dst); only pairs
  /// involving self_ ever appear).
  struct DirState {
    bool partition_activated = false;
    bool partition_healed = false;
    bool reset_done = false;
    bool truncation_done = false;
  };

  /// True when the (src, dst) partition is active at the current op index,
  /// updating sticky activation. Caller holds mu_.
  bool PartitionActiveLocked(int src, int dst) REQUIRES(mu_);

  /// Counts one blackholed op on the (self, peer) link and heals any
  /// hit-bounded partitions that reached their budget. Caller holds mu_.
  void CountHitLocked(int peer) REQUIRES(mu_);

  /// Parks until `deadline` or the plan's blackhole cap (whichever is
  /// sooner), honoring abort_fd; returns the injected-partition timeout or
  /// the abort status.
  [[nodiscard]] Status Blackhole(int peer, const char* what,
                                 const Deadline& deadline, int abort_fd);

  /// Applies reset/truncation/throttle faults for one send self -> peer.
  /// Returns true (with *out set) when a fault consumed the operation.
  bool ApplySendFaults(int peer, int fd, const void* data, size_t len,
                       const Deadline& deadline, int abort_fd, Status* out);

  const WireFaultPlan* plan_;
  const int self_;
  std::atomic<uint64_t> op_index_{0};

  mutable Mutex mu_;
  std::map<std::pair<int, int>, DirState> dir_state_ GUARDED_BY(mu_);
  std::map<int, uint64_t> link_hits_ GUARDED_BY(mu_);
  int accept_failures_served_ GUARDED_BY(mu_) = 0;
  uint64_t faults_injected_ GUARDED_BY(mu_) = 0;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_NET_FAULT_H_
