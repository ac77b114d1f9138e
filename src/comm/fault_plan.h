#ifndef DDPKIT_COMM_FAULT_PLAN_H_
#define DDPKIT_COMM_FAULT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/jitter.h"

namespace ddpkit::comm {

/// The kinds of fault ProcessGroupSim can inject (paper §Discussion names
/// error handling as the unsolved operational pain; DistIR/Proteus-style
/// simulators are the one place failure timelines are reproducible).
enum class FaultKind {
  /// Rank arrives late at one collective: its preceding compute stalled.
  kStall,
  /// The collective's completion is pushed back (slow link / congestion).
  kDelayedCompletion,
  /// Rank silently stops participating from a sequence number on — the
  /// NCCL-desync shape: peers see the op never finish.
  kDropParticipation,
  /// Rank hard-crashes at its Nth collective and is dead afterwards.
  kCrash,
};
const char* FaultKindName(FaultKind kind);

/// Deterministic per-rank fault schedule consulted by ProcessGroupSim.
/// Faults are keyed by (rank, collective sequence number); all ranks of a
/// group share one plan, so every participant derives the same view of who
/// is stalled, absent, or dead at any sequence number — which is what lets
/// the simulated backend surface a typed timeout instead of deadlocking.
///
/// Build the schedule up front (explicitly or via AddRandomStalls), then
/// hand the plan to ProcessGroupSim::Options / SimWorldOptions. Queries are
/// const and lock-free; mutating a plan after groups started using it is a
/// race and unsupported.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Rank `rank` arrives `seconds` of virtual time late at collective `seq`.
  void StallRank(int rank, uint64_t seq, double seconds);

  /// Collective `seq` completes `seconds` later than modeled whenever
  /// `rank` participates (per-rank slow-link; the max over ranks applies).
  void DelayCompletion(int rank, uint64_t seq, double seconds);

  /// Rank `rank` never joins collectives with sequence >= `from_seq`.
  void DropRank(int rank, uint64_t from_seq);

  /// Rank `rank` crashes at collective `at_seq` (its own call fails with
  /// kInternal) and never joins any later collective.
  void CrashRank(int rank, uint64_t at_seq);

  /// Seeded random stalls: every (rank, seq) pair with rank < world and
  /// seq < num_seqs is stalled independently according to the straggler
  /// model's stall options. Same seed => same schedule, bit-for-bit.
  void AddRandomStalls(uint64_t seed, int world, uint64_t num_seqs,
                       const sim::StragglerModel& model);

  /// Virtual seconds rank `rank` is late to collective `seq` (0 = on time).
  double StallSeconds(int rank, uint64_t seq) const;

  /// Max completion delay any participant injects into collective `seq`.
  double CompletionDelaySeconds(uint64_t seq) const;

  /// True when `rank` does not participate in collective `seq` (dropped or
  /// already crashed).
  bool IsAbsent(int rank, uint64_t seq) const;

  /// True when `rank` has crashed at or before collective `seq`.
  bool IsCrashed(int rank, uint64_t seq) const;

  /// Sequence number at which `rank` crashes; valid when HasCrash(rank).
  bool HasCrash(int rank) const;
  uint64_t CrashSeq(int rank) const;

  /// Ranks in [0, world) absent from collective `seq`, ascending.
  std::vector<int> AbsentRanks(uint64_t seq, int world) const;

  /// One-line description of why `rank` is absent from `seq`, for
  /// diagnostics ("crashed at collective 3" / "dropped participation from
  /// collective 5").
  std::string AbsenceReason(int rank, uint64_t seq) const;

  bool empty() const {
    return stalls_.empty() && delays_.empty() && drop_from_.empty() &&
           crash_at_.empty();
  }

 private:
  using RankSeq = std::pair<int, uint64_t>;

  std::map<RankSeq, double> stalls_;
  std::map<RankSeq, double> delays_;
  std::map<int, uint64_t> drop_from_;
  std::map<int, uint64_t> crash_at_;
};

/// The kinds of wire fault the transport shim (comm/net_fault.h) can
/// inject between a pair of ranks on the real TCP mesh. Unlike FaultPlan
/// (whose faults are rank-level and virtual-time), these are link-level
/// and manifest through real socket behaviour: blackholed bytes, hard
/// resets, mid-frame truncation, throttled throughput, refused accepts.
enum class WireFaultKind {
  kPartition,
  kReset,
  kTruncation,
  kSlowLink,
  kFlakyAccept,
};
const char* WireFaultKindName(WireFaultKind kind);

/// Deterministic per-(link, direction, op-index) wire-fault schedule, the
/// wire-level sibling of FaultPlan. All ranks of a run share one plan
/// (built from the same seed / --chaos spec), so both endpoints of a link
/// derive the same view of when the link is partitioned, reset, or slow —
/// which is what makes a chaos run replayable from a single seed.
///
/// Directions are ordered rank pairs: a fault on (src, dst) affects bytes
/// flowing src -> dst only. A two-way partition is simply both directions.
/// Op indices are the collective sequence numbers the process group stamps
/// on the shim (WireFaultInjector::set_op_index); faults activate the
/// first time the shim sees op_index >= from_op and are sticky from then
/// on, so a regrouped generation (whose sequence numbers restart at 0)
/// stays partitioned until the fault heals.
///
/// Healing is hit-based, not time-based: a partition with
/// `heal_after_hits` = H lifts, per process, after that process has had H
/// link operations blackholed. Hit counting is deterministic given the
/// schedule of shim calls, which wall-clock healing would not be.
///
/// Build the plan up front, then hand it (const) to one WireFaultInjector
/// per process; queries are const and lock-free.
class WireFaultPlan {
 public:
  struct Partition {
    uint64_t from_op = 0;
    /// 0 = persistent; otherwise the partition heals (per process) after
    /// this many blackholed link operations.
    uint32_t heal_after_hits = 0;
  };
  struct Reset {
    uint64_t at_op = 0;
  };
  struct Truncation {
    uint64_t at_op = 0;
    /// Bytes of the faulted payload actually delivered before the reset.
    uint64_t after_bytes = 0;
  };
  struct Throttle {
    /// Added once per shim operation, before the first byte moves.
    double latency_seconds = 0.0;
    /// 0 = unlimited; otherwise sends are paced to this many bytes/sec.
    double bytes_per_second = 0.0;
  };

  WireFaultPlan() = default;

  /// Blackholes src -> dst traffic from op `from_op` on. `heal_after_hits`
  /// 0 = persistent.
  void PartitionOneWay(int src, int dst, uint64_t from_op,
                       uint32_t heal_after_hits = 0);

  /// Both directions of the (a, b) link.
  void PartitionTwoWay(int a, int b, uint64_t from_op,
                       uint32_t heal_after_hits = 0);

  /// The first src -> dst send at op index >= `at_op` injects a hard
  /// connection reset (shutdown of the socket; the peer observes EOF
  /// mid-message). One-shot.
  void ResetConnection(int src, int dst, uint64_t at_op);

  /// The first src -> dst send of more than `after_bytes` bytes at op
  /// index >= `at_op` delivers only the first `after_bytes` bytes, then
  /// resets the connection — the mid-frame truncation case. One-shot.
  void TruncateSend(int src, int dst, uint64_t at_op, uint64_t after_bytes);

  /// Every src -> dst operation pays `latency_seconds` up front and is
  /// paced to `bytes_per_second` (0 = unpaced).
  void SlowLink(int src, int dst, double latency_seconds,
                double bytes_per_second = 0.0);

  /// The first `fail_count` accepts on `rank` fail with a transient error
  /// (listen queue flakiness during [re]bootstrap).
  void FlakyAccept(int rank, int fail_count);

  /// Seeded chaos: partitions one random ring-adjacent rank pair
  /// (two-way) from `from_op` — adjacent so the fault is guaranteed to
  /// land on a link the default ring schedule actually exercises. Same
  /// seed => same pair, bit-for-bit.
  void AddRandomPartition(uint64_t seed, int world, uint64_t from_op,
                          uint32_t heal_after_hits = 0);

  /// The pair AddRandomPartition(seed, world, ...) would pick, exposed so
  /// test harnesses can predict the faulted link from the seed.
  static std::pair<int, int> RandomPair(uint64_t seed, int world);

  // Queries (used by WireFaultInjector; direction is src -> dst).
  const Partition* FindPartition(int src, int dst) const;
  const Reset* FindReset(int src, int dst) const;
  const Truncation* FindTruncation(int src, int dst) const;
  const Throttle* FindThrottle(int src, int dst) const;
  int AcceptFailures(int rank) const;

  /// Longest single blackhole wait the shim serves before reporting the
  /// injected timeout (keeps chaos tests fast; the caller's own deadline
  /// still applies when shorter).
  double blackhole_cap_seconds = 0.25;

  bool empty() const {
    return partitions_.empty() && resets_.empty() && truncations_.empty() &&
           throttles_.empty() && flaky_accepts_.empty();
  }

  /// Canonical one-line-per-fault rendering, for seed-determinism
  /// assertions and chaos-run logging.
  std::string DebugString() const;

 private:
  using Link = std::pair<int, int>;  // directed (src, dst)

  std::map<Link, Partition> partitions_;
  std::map<Link, Reset> resets_;
  std::map<Link, Truncation> truncations_;
  std::map<Link, Throttle> throttles_;
  std::map<int, int> flaky_accepts_;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_FAULT_PLAN_H_
