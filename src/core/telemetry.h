#ifndef DDPKIT_CORE_TELEMETRY_H_
#define DDPKIT_CORE_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ddpkit::core {

/// Per-bucket timing inside one synced backward: launch (all gradients
/// ready, AllReduce issued) to completion (cost-model finish), plus the
/// slice of that window FinalizeBackward actually blocked on — the exposed
/// portion. All times are the rank's virtual clock, in seconds.
struct BucketTelemetry {
  size_t bucket = 0;
  size_t bytes = 0;
  double launch_seconds = 0.0;
  double completion_seconds = 0.0;
  /// Exposed wait charged to this bucket at finalize (0 when the bucket
  /// completed entirely under later compute or earlier waits).
  double wait_seconds = 0.0;
};

/// One synced iteration's timing record — the paper's Fig 6 quantities plus
/// the copy costs §4.2 names. Populated by the DDP wrapper (forward) and
/// the Reducer (everything else); virtual-clock fields are comparable to
/// the cluster simulator's breakdowns, while the copy fields are real
/// wall-clock spent in this process's memcpy loops.
struct DDPTelemetry {
  uint64_t iteration = 0;
  int rank = 0;
  /// False when the iteration's sync aborted on a collective fault; timing
  /// fields then cover only the completed prefix.
  bool synced = true;

  // -- Fig 6 breakdown (virtual seconds) --
  double forward_seconds = 0.0;
  /// First gradient hook to last bucket launch-eligibility: the backward
  /// compute span.
  double backward_compute_seconds = 0.0;
  /// Exposed AllReduce time: clock advance inside FinalizeBackward's waits
  /// (communication NOT hidden behind backward compute).
  double allreduce_wait_seconds = 0.0;
  /// Communication hidden behind backward compute: union of the per-bucket
  /// launch→completion windows clipped to the backward-compute span.
  /// Invariant: overlap_seconds <= backward_compute_seconds.
  double overlap_seconds = 0.0;
  /// Union of launch→completion windows (in-flight communication time).
  double comm_seconds = 0.0;

  // -- §4.2 copy costs (real wall-clock seconds) --
  double copy_in_seconds = 0.0;   // gradient -> bucket, summed over hooks
  double copy_out_seconds = 0.0;  // bucket -> gradient, at finalize

  /// Per-parameter backward compute charged by the cost model, in hook
  /// order; empty when no compute model is attached.
  std::vector<double> param_compute_seconds;
  std::vector<BucketTelemetry> buckets;

  // -- cumulative health counters (reducer lifetime, sampled at finalize) --
  uint64_t rebuilds = 0;
  uint64_t sync_failures = 0;

  json::Value ToJson() const;
};

/// Append-only per-iteration telemetry trajectory. One instance is shared
/// by a replica's DDP wrapper and Reducer (ReducerOptions::telemetry); a
/// multi-rank harness may share one log across ranks — Append is
/// thread-safe and records carry their rank.
class TelemetryLog {
 public:
  TelemetryLog() = default;
  TelemetryLog(const TelemetryLog&) = delete;
  TelemetryLog& operator=(const TelemetryLog&) = delete;

  void Append(DDPTelemetry record);
  void Clear();

  size_t size() const;
  std::vector<DDPTelemetry> snapshot() const;

  /// {"iterations":[{...},...]} — the BENCH_*.json trajectory format.
  json::Value ToJson() const;

  /// Writes Serialize(ToJson()) to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  mutable Mutex mutex_;
  std::vector<DDPTelemetry> records_ GUARDED_BY(mutex_);
};

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_TELEMETRY_H_
