#include "comm/work.h"

#include <utility>

#include "common/check.h"

namespace ddpkit::comm {

Status Work::Wait(sim::VirtualClock* clock, double timeout_seconds) {
  const double entry = clock != nullptr ? clock->Now() : 0.0;
  MutexLock lock(&mutex_);
  while (!done_) cv_.Wait(mutex_);
  if (!status_.ok()) {
    if (clock != nullptr) clock->AdvanceTo(completion_time_);
    return status_;
  }
  if (clock != nullptr && timeout_seconds > 0.0 &&
      completion_time_ - entry > timeout_seconds) {
    clock->AdvanceTo(entry + timeout_seconds);
    std::string msg = "collective did not complete within " +
                      std::to_string(timeout_seconds) +
                      "s (virtual); it finished at t=" +
                      std::to_string(completion_time_) +
                      ", this rank arrived at t=" + std::to_string(entry);
    if (!completion_note_.empty()) msg += "; " + completion_note_;
    return Status::TimedOut(std::move(msg));
  }
  if (clock != nullptr) clock->AdvanceTo(completion_time_);
  return Status::OK();
}

bool Work::Poll() const {
  MutexLock lock(&mutex_);
  return done_;
}

bool Work::IsCompleted() const {
  MutexLock lock(&mutex_);
  return done_ && status_.ok();
}

Status Work::status() const {
  MutexLock lock(&mutex_);
  return status_;
}

double Work::completion_time() const {
  MutexLock lock(&mutex_);
  // ddplint: allow(check-in-comm) API precondition (caller must Poll()
  // first), not a runtime collective failure.
  DDPKIT_CHECK(done_);
  return completion_time_;
}

void Work::MarkCompleted(double completion_time, std::string note) {
  {
    MutexLock lock(&mutex_);
    if (done_) return;  // first terminal state wins (a watchdog's MarkFailed
                        // may race the last arrival's completion)
    done_ = true;
    completion_time_ = completion_time;
    completion_note_ = std::move(note);
  }
  cv_.NotifyAll();
}

void Work::MarkFailed(Status status, double failure_time) {
  // ddplint: allow(check-in-comm) API precondition (an OK Status is not a
  // failure), not a runtime collective failure.
  DDPKIT_CHECK(!status.ok());
  {
    MutexLock lock(&mutex_);
    if (done_) return;  // first terminal state wins
    done_ = true;
    status_ = std::move(status);
    completion_time_ = failure_time;
  }
  cv_.NotifyAll();
}

WorkHandle FailedWork(Status status, double failure_time) {
  auto work = std::make_shared<Work>();
  work->MarkFailed(std::move(status), failure_time);
  return work;
}

}  // namespace ddpkit::comm
