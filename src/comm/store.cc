#include "comm/store.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <system_error>
#include <thread>

#include "common/check.h"

namespace ddpkit::comm {

namespace {

// ddplint: allow(banned-nondeterminism) the store models an out-of-band TCP
// service: retry backoff and deadlines are real time by design (DESIGN.md
// §6), not part of the deterministic virtual-time data plane.
using Clock = std::chrono::steady_clock;

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(seconds));
}

void SleepFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Pause before a typed op's second try; it doubles for each further try.
constexpr double kInitialBackoffSeconds = 0.0005;

/// Pause between a convenience's tries of a store that failed (a wire
/// client reconnecting to a restarted server).
constexpr double kConveniencePauseSeconds = 0.01;

/// How long one try of the blocking Get waits for its key before the
/// attempt loop re-issues it.
constexpr double kGetSliceSeconds = 0.05;

/// A request the store rejects as such — a counter that is not an integer,
/// an Add that overflows, a bad timeout. Retrying cannot change the answer.
bool IsRequestError(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kOutOfRange;
}

}  // namespace

// ---------------------------------------------------------------------------
// In-memory primitive layer (overridden by StoreClientTcp with framed RPCs).
// ---------------------------------------------------------------------------

Status Store::DoSet(const std::string& key, const std::string& value) {
  {
    MutexLock lock(&mutex_);
    data_[key] = value;
  }
  cv_.NotifyAll();
  return Status::OK();
}

Result<int64_t> Store::DoAdd(const std::string& key, int64_t delta) {
  int64_t result;
  {
    MutexLock lock(&mutex_);
    int64_t current = 0;
    auto it = data_.find(key);
    if (it != data_.end()) {
      // Store values are untrusted bytes: parse strictly, never throw.
      const std::string& text = it->second;
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, current);
      if (ec != std::errc() || ptr != end) {
        return Status::InvalidArgument(
            "store Add('" + key + "'): value '" + text.substr(0, 32) +
            "' is not an integer");
      }
    }
    if ((delta > 0 && current > std::numeric_limits<int64_t>::max() - delta) ||
        (delta < 0 && current < std::numeric_limits<int64_t>::min() - delta)) {
      return Status::OutOfRange("store Add('" + key + "', " +
                                std::to_string(delta) + ") overflows " +
                                std::to_string(current));
    }
    result = current + delta;
    data_[key] = std::to_string(result);
  }
  cv_.NotifyAll();
  return result;
}

Result<std::string> Store::DoGetBounded(const std::string& key,
                                        double timeout_seconds) {
  const bool immediate = timeout_seconds <= 0.0;
  const auto deadline = DeadlineAfter(immediate ? 0.0 : timeout_seconds);
  MutexLock lock(&mutex_);
  for (;;) {
    auto it = data_.find(key);
    if (it != data_.end()) return it->second;
    if (immediate || !cv_.WaitUntil(mutex_, deadline)) {
      // Deadline passed; one final predicate check under the lock, as
      // wait_until-with-predicate would have done.
      it = data_.find(key);
      if (it != data_.end()) return it->second;
      return Status::TimedOut("store key '" + key + "' not set within " +
                              std::to_string(timeout_seconds) + "s");
    }
  }
}

Result<int64_t> Store::DoNumKeys() {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(data_.size());
}

Result<int64_t> Store::DoDeletePrefix(const std::string& prefix) {
  MutexLock lock(&mutex_);
  auto it = data_.lower_bound(prefix);
  int64_t deleted = 0;
  while (it != data_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0) {
    it = data_.erase(it);
    ++deleted;
  }
  return deleted;
}

// ---------------------------------------------------------------------------
// The attempt loop and fault injection.
// ---------------------------------------------------------------------------

Status Store::Retry(const char* op, const std::string& key, Budget budget,
                    const std::function<Status()>& attempt) {
  double backoff = kInitialBackoffSeconds;
  for (int failures = 0;;) {
    const Status status = TakeInjectedFault()
                              ? Status::Internal("injected transient fault")
                              : attempt();
    if (status.ok()) return status;
    const bool miss = status.code() == StatusCode::kTimedOut;
    if (budget == Budget::kBounded && (miss || IsRequestError(status))) {
      return status;
    }
    if (miss) continue;  // the blocking Get re-issues its wait at once
    RecordTransientFailure();
    if (budget == Budget::kForever) {
      SleepFor(kConveniencePauseSeconds);
      continue;
    }
    if (++failures == kMaxAttempts) {
      return Status::Internal(std::string("store ") + op + "('" + key +
                              "') failed transiently on all " +
                              std::to_string(kMaxAttempts) +
                              " attempts: " + status.message());
    }
    SleepFor(backoff);
    backoff *= 2.0;
  }
}

bool Store::TakeInjectedFault() {
  MutexLock lock(&fault_mutex_);
  if (fault_budget_ == 0) return false;
  --fault_budget_;
  return true;
}

void Store::RecordTransientFailure() {
  MutexLock lock(&fault_mutex_);
  ++transient_failures_;
}

void Store::InjectTransientFaults(int failure_budget) {
  // ddplint: allow(check-in-comm) test-harness argument precondition, not a
  // runtime collective failure.
  DDPKIT_CHECK_GE(failure_budget, 0);
  MutexLock lock(&fault_mutex_);
  fault_budget_ = failure_budget;
}

uint64_t Store::transient_failures() const {
  MutexLock lock(&fault_mutex_);
  return transient_failures_;
}

// ---------------------------------------------------------------------------
// Public ops. Under the kForever budget Retry returns only OK, so the
// conveniences have no status to check.
// ---------------------------------------------------------------------------

void Store::Set(const std::string& key, std::string value) {
  (void)Retry("Set", key, Budget::kForever,
              [&] { return DoSet(key, value); });
}

std::string Store::Get(const std::string& key) {
  std::string value;
  (void)Retry("Get", key, Budget::kForever, [&] {
    Result<std::string> got = DoGetBounded(key, kGetSliceSeconds);
    if (got.ok()) value = std::move(got).value();
    return got.status();
  });
  return value;
}

size_t Store::NumKeys() {
  int64_t count = 0;
  (void)Retry("NumKeys", "", Budget::kForever, [&] {
    Result<int64_t> n = DoNumKeys();
    if (n.ok()) count = n.value();
    return n.status();
  });
  return static_cast<size_t>(count);
}

Status Store::SetWithRetry(const std::string& key, std::string value) {
  return Retry("Set", key, Budget::kBounded,
               [&] { return DoSet(key, value); });
}

Status Store::AddWithRetry(const std::string& key, int64_t delta,
                           int64_t* result) {
  return Retry("Add", key, Budget::kBounded, [&] {
    Result<int64_t> sum = DoAdd(key, delta);
    if (sum.ok() && result != nullptr) *result = sum.value();
    return sum.status();
  });
}

Result<std::string> Store::GetWithRetry(const std::string& key,
                                        double timeout_seconds) {
  if (!std::isfinite(timeout_seconds) || timeout_seconds < 0.0) {
    return Status::InvalidArgument(
        "store wait timeout must be finite and non-negative, got " +
        std::to_string(timeout_seconds));
  }
  // One deadline across every attempt: a retry after a transport failure
  // waits only for what is left, and past the deadline an attempt is an
  // immediate lookup.
  const auto deadline = DeadlineAfter(timeout_seconds);
  std::string value;
  DDPKIT_RETURN_IF_ERROR(Retry("Get", key, Budget::kBounded, [&] {
    const double remaining =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    Result<std::string> got = DoGetBounded(key, std::max(remaining, 0.0));
    if (got.ok()) value = std::move(got).value();
    return got.status();
  }));
  return value;
}

Result<int64_t> Store::DeletePrefixWithRetry(const std::string& prefix) {
  int64_t deleted = 0;
  DDPKIT_RETURN_IF_ERROR(Retry("DeletePrefix", prefix, Budget::kBounded, [&] {
    Result<int64_t> n = DoDeletePrefix(prefix);
    if (n.ok()) deleted = n.value();
    return n.status();
  }));
  return deleted;
}

}  // namespace ddpkit::comm
