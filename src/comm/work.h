#ifndef DDPKIT_COMM_WORK_H_
#define DDPKIT_COMM_WORK_H_

#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/virtual_clock.h"

namespace ddpkit::comm {

/// Handle to an asynchronously-launched collective, mirroring c10d's Work.
/// The launching rank keeps computing (overlap!); Wait() blocks the real
/// thread until every participant has contributed and then advances the
/// rank's virtual clock to the modeled completion time.
///
/// A Work terminates exactly once, either successfully (MarkCompleted) or
/// with the Status its caller sees (MarkFailed), closing the error
/// taxonomy the paper's Discussion section leaves open: a peer that never
/// shows up (kTimedOut), a peer known dead (kInternal), ranks issuing
/// structurally different or invalid collectives (kFailedPrecondition), or
/// a collective issued against a process-group generation that elastic
/// recovery has superseded (kInvalidGeneration). Wait turns a late
/// completion or a failure into a Status instead of blocking forever — the
/// NCCL-watchdog behaviour the paper's design lacks.
class Work {
 public:
  Work() = default;
  Work(const Work&) = delete;
  Work& operator=(const Work&) = delete;

  /// Blocks the real thread until the work is terminal, then:
  ///  - failed work: advances `clock` to the failure time and returns the
  ///    failure's Status as stored;
  ///  - completed later than `timeout_seconds` of virtual time after this
  ///    rank's arrival: advances `clock` by exactly the timeout and returns
  ///    TimedOut (per-rank watchdog semantics — the collective itself may
  ///    have finished for punctual peers);
  ///  - completed in time: advances `clock` to completion, returns OK.
  /// A non-positive timeout disables the watchdog (virtual-time-wise).
  [[nodiscard]] Status Wait(sim::VirtualClock* clock, double timeout_seconds);

  /// Non-throwing, non-blocking: true once the work is terminal (either
  /// completed or failed). Never aborts.
  bool Poll() const;

  /// True once the work completed successfully.
  bool IsCompleted() const;

  /// The failure (its message names the offending rank and sequence number
  /// when known); OK while pending or after success.
  [[nodiscard]] Status status() const;

  /// Virtual terminal time. Precondition: Poll().
  double completion_time() const;

  /// Marks the collective done at virtual time `completion_time` (called by
  /// the last-arriving participant after it has performed the reduction).
  /// `note` is appended to timeout diagnostics (e.g. the slowest
  /// participant's identity). The first terminal state wins: completing an
  /// already-terminal work (e.g. one a concurrent watchdog already failed)
  /// is a no-op, never an abort — the failure verdict stands.
  void MarkCompleted(double completion_time, std::string note = "");

  /// Marks the collective failed with the non-OK `status` at virtual time
  /// `failure_time`. The first terminal state wins: failing an
  /// already-terminal work is a no-op, so concurrent detectors don't race.
  void MarkFailed(Status status, double failure_time);

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  bool done_ GUARDED_BY(mutex_) = false;
  Status status_ GUARDED_BY(mutex_);
  std::string completion_note_ GUARDED_BY(mutex_);
  double completion_time_ GUARDED_BY(mutex_) = 0.0;
};

using WorkHandle = std::shared_ptr<Work>;

/// A Work already failed with the non-OK `status` at `failure_time`: the
/// handle of a collective that fails before it runs.
[[nodiscard]] WorkHandle FailedWork(Status status, double failure_time);

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_WORK_H_
