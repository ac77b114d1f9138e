#include "core/trace.h"

namespace ddpkit::core {

void TraceRecorder::AddSpan(std::string name, std::string category, int rank,
                            double start_seconds, double end_seconds) {
  MutexLock lock(&mutex_);
  spans_.push_back(Span{std::move(name), std::move(category), rank,
                        start_seconds, end_seconds});
}

void TraceRecorder::AddFlowPoint(uint64_t flow_id, FlowPhase phase,
                                 std::string name, std::string category,
                                 int rank, double time_seconds) {
  MutexLock lock(&mutex_);
  flow_points_.push_back(FlowPoint{flow_id, phase, std::move(name),
                                   std::move(category), rank, time_seconds});
}

void TraceRecorder::AddInstant(std::string name, std::string category,
                               int rank, double time_seconds) {
  MutexLock lock(&mutex_);
  instants_.push_back(
      Instant{std::move(name), std::move(category), rank, time_seconds});
}

void TraceRecorder::Clear() {
  MutexLock lock(&mutex_);
  spans_.clear();
  flow_points_.clear();
  instants_.clear();
}

std::vector<TraceRecorder::Span> TraceRecorder::snapshot() const {
  MutexLock lock(&mutex_);
  return spans_;
}

std::vector<TraceRecorder::FlowPoint> TraceRecorder::flow_points() const {
  MutexLock lock(&mutex_);
  return flow_points_;
}

std::vector<TraceRecorder::Instant> TraceRecorder::instants() const {
  MutexLock lock(&mutex_);
  return instants_;
}

size_t TraceRecorder::size() const {
  MutexLock lock(&mutex_);
  return spans_.size() + flow_points_.size() + instants_.size();
}

namespace {

/// The members every event starts with, in Chrome's customary order.
template <typename Record>
json::Object Event(const Record& record, std::string phase) {
  return json::Object{{"name", record.name},
                      {"cat", record.category},
                      {"pid", 0},
                      {"tid", record.rank},
                      {"ph", phase}};
}

}  // namespace

json::Value TraceRecorder::ToChromeTraceJson() const {
  // Building the events costs about what copying the records out would,
  // so they are built under the lock.
  MutexLock lock(&mutex_);
  json::Array events;
  for (const Span& span : spans_) {
    json::Object event = Event(span, "X");
    event.emplace_back("ts", span.start_seconds * 1e6);
    event.emplace_back("dur", (span.end_seconds - span.start_seconds) * 1e6);
    events.emplace_back(std::move(event));
  }
  for (const FlowPoint& fp : flow_points_) {
    json::Object event = Event(fp, std::string(1, static_cast<char>(fp.phase)));
    event.emplace_back("id", fp.flow_id);
    event.emplace_back("ts", fp.time_seconds * 1e6);
    // bp:"e" binds flow end points to the enclosing slice, matching how
    // chrome://tracing draws arrows between spans.
    if (fp.phase == FlowPhase::kEnd) event.emplace_back("bp", "e");
    events.emplace_back(std::move(event));
  }
  for (const Instant& inst : instants_) {
    json::Object event = Event(inst, "i");
    event.emplace_back("s", "t");
    event.emplace_back("ts", inst.time_seconds * 1e6);
    events.emplace_back(std::move(event));
  }
  return json::Object{{"traceEvents", std::move(events)},
                      {"displayTimeUnit", "ms"}};
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  return json::WriteFile(path, json::Serialize(ToChromeTraceJson()));
}

}  // namespace ddpkit::core
