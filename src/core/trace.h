#ifndef DDPKIT_CORE_TRACE_H_
#define DDPKIT_CORE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ddpkit::core {

/// Virtual-time span recorder for DDP iterations. The reducer and DDP
/// wrapper emit spans (forward compute, per-gradient backward compute,
/// per-bucket AllReduce) against the rank's virtual clock; the result
/// exports to the Chrome trace-event JSON format (chrome://tracing /
/// Perfetto), making the paper's overlap behaviour directly visible: comm
/// spans riding under the backward-compute span.
///
/// Beyond plain spans the recorder supports two Chrome trace-event idioms:
///  - flow events ("s"/"t"/"f" phases, shared id) draw arrows across the
///    causal chain of one bucket: last gradient ready -> AllReduce launch
///    -> completion;
///  - instant events ("i" phase) mark iteration boundaries, giving the
///    viewer per-iteration frames to navigate by.
///
/// Thread-safe: rank threads append concurrently.
class TraceRecorder {
 public:
  struct Span {
    std::string name;
    std::string category;  // "forward" | "backward" | "comm" | ...
    int rank = 0;
    double start_seconds = 0.0;
    double end_seconds = 0.0;
  };

  /// Position of a flow point within its arrow chain; each value is the
  /// event's Chrome trace "ph" letter.
  enum class FlowPhase : char { kStart = 's', kStep = 't', kEnd = 'f' };

  struct FlowPoint {
    uint64_t flow_id = 0;
    FlowPhase phase = FlowPhase::kStart;
    std::string name;
    std::string category;
    int rank = 0;
    double time_seconds = 0.0;
  };

  struct Instant {
    std::string name;
    std::string category;
    int rank = 0;
    double time_seconds = 0.0;
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void AddSpan(std::string name, std::string category, int rank,
               double start_seconds, double end_seconds);

  /// One point of a flow arrow. Points sharing `flow_id` are connected in
  /// time order; every chain needs exactly one kStart and one kEnd, with
  /// any number of kStep points between.
  void AddFlowPoint(uint64_t flow_id, FlowPhase phase, std::string name,
                    std::string category, int rank, double time_seconds);

  /// Zero-duration marker (per-iteration frame boundaries).
  void AddInstant(std::string name, std::string category, int rank,
                  double time_seconds);

  void Clear();

  std::vector<Span> snapshot() const;
  std::vector<FlowPoint> flow_points() const;
  std::vector<Instant> instants() const;
  size_t size() const;

  /// Chrome trace-event JSON ("X" complete events, "s"/"t"/"f" flow
  /// events, "i" instants; microsecond units, one pseudo-thread per rank).
  json::Value ToChromeTraceJson() const;

  /// Writes Serialize(ToChromeTraceJson()) to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  mutable Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  std::vector<FlowPoint> flow_points_ GUARDED_BY(mutex_);
  std::vector<Instant> instants_ GUARDED_BY(mutex_);
};

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_TRACE_H_
