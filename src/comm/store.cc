#include "comm/store.h"

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

void SleepReal(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// How long each bounded slice of a legacy (block-forever) op waits before
/// re-issuing. The in-memory primitives wake on notify regardless, so the
/// slice only bounds how long a wire client's RPC channel stays occupied by
/// one blocked waiter.
constexpr double kLegacySliceSeconds = 0.05;

/// Backoff between legacy-tier retries of a transport failure (a wire
/// client reconnecting to a restarted server).
constexpr double kLegacyRetryBackoffSeconds = 0.01;

/// A request the store rejects as such — a counter that is not an integer,
/// an Add that overflows, a bad timeout. Retrying cannot change the answer,
/// so neither tier retries it and it is no transient failure.
bool IsRequestError(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kOutOfRange;
}

/// Elapsed/backoff accounting for the retryable tier, on the clock the
/// policy selects. kVirtual never sleeps for real: backoff advances the
/// supplied VirtualClock so sim tests walk the retry/timeout decision tree
/// deterministically.
class RetryClock {
 public:
  explicit RetryClock(const RetryPolicy& policy)
      : virtual_clock_(policy.clock_mode == RetryPolicy::ClockMode::kVirtual
                           ? policy.virtual_clock
                           : nullptr) {
    if (virtual_clock_ != nullptr) {
      virtual_start_ = virtual_clock_->Now();
    } else {
      real_start_ = Clock::now();
    }
  }

  bool real() const { return virtual_clock_ == nullptr; }

  double Elapsed() const {
    if (virtual_clock_ != nullptr) {
      return virtual_clock_->Now() - virtual_start_;
    }
    return std::chrono::duration<double>(Clock::now() - real_start_).count();
  }

  void SleepBackoff(double seconds) {
    if (virtual_clock_ != nullptr) {
      virtual_clock_->Advance(seconds);
      // Let a concurrent setter run; costs no virtual time, decides nothing.
      std::this_thread::yield();
      return;
    }
    SleepReal(seconds);
  }

 private:
  sim::VirtualClock* virtual_clock_;
  double virtual_start_ = 0.0;
  Clock::time_point real_start_;
};

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

Status Store::DoTryGet(const std::string& key, std::string* value,
                       bool* found) {
  MutexLock lock(&mutex_);
  auto it = data_.find(key);
  *found = it != data_.end();
  if (*found) *value = it->second;
  return Status::OK();
}

Status Store::CheckBoundedTimeout(double timeout_seconds) {
  if (!std::isfinite(timeout_seconds) || timeout_seconds < 0.0) {
    return Status::InvalidArgument(
        "store wait timeout must be finite and non-negative, got " +
        std::to_string(timeout_seconds));
  }
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

Status Store::DoWaitBounded(const std::vector<std::string>& keys,
                            double timeout_seconds) {
  const bool immediate = timeout_seconds <= 0.0;
  const auto deadline = DeadlineAfter(immediate ? 0.0 : timeout_seconds);
  MutexLock lock(&mutex_);
  for (;;) {
    bool all_present = true;
    for (const auto& key : keys) {
      if (data_.count(key) == 0) {
        all_present = false;
        break;
      }
    }
    if (all_present) return Status::OK();
    if (immediate || !cv_.WaitUntil(mutex_, deadline)) {
      return Status::TimedOut("store keys not all set within " +
                              std::to_string(timeout_seconds) + "s");
    }
  }
}

Result<int64_t> Store::DoNumKeys() {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(data_.size());
}

Result<int64_t> Store::DoDeleteKey(const std::string& key) {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(data_.erase(key));
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
// Legacy blocking tier: assumes a healthy store, so primitive-layer
// transport failures (only possible from a wire subclass) retry forever
// with a small real backoff, and bounded-slice timeouts just re-issue.
// ---------------------------------------------------------------------------

void Store::Set(const std::string& key, std::string value) {
  for (;;) {
    const Status status = DoSet(key, value);
    if (status.ok()) return;
    RecordTransientFailure();
    SleepReal(kLegacyRetryBackoffSeconds);
  }
}

std::string Store::Get(const std::string& key) {
  for (;;) {
    Result<std::string> result = DoGetBounded(key, kLegacySliceSeconds);
    if (result.ok()) return std::move(result).value();
    if (result.status().code() != StatusCode::kTimedOut) {
      RecordTransientFailure();
      SleepReal(kLegacyRetryBackoffSeconds);
    }
  }
}

bool Store::TryGet(const std::string& key, std::string* value) {
  // ddplint: allow(check-in-comm) API precondition on the out-parameter,
  // not a runtime collective failure.
  DDPKIT_CHECK(value != nullptr);
  for (;;) {
    bool found = false;
    const Status status = DoTryGet(key, value, &found);
    if (status.ok()) return found;
    RecordTransientFailure();
    SleepReal(kLegacyRetryBackoffSeconds);
  }
}

int64_t Store::Add(const std::string& key, int64_t delta) {
  for (;;) {
    Result<int64_t> result = DoAdd(key, delta);
    if (result.ok()) return result.value();
    // ddplint: allow(check-in-comm) reason: this legacy op has no error
    // channel and a rejected request fails the same way on every retry;
    // AddWithRetry returns it as a Status.
    DDPKIT_CHECK(!IsRequestError(result.status()))
        << result.status().ToString();
    RecordTransientFailure();
    SleepReal(kLegacyRetryBackoffSeconds);
  }
}

void Store::Wait(const std::vector<std::string>& keys) {
  for (;;) {
    const Status status = DoWaitBounded(keys, kLegacySliceSeconds);
    if (status.ok()) return;
    if (status.code() != StatusCode::kTimedOut) {
      RecordTransientFailure();
      SleepReal(kLegacyRetryBackoffSeconds);
    }
  }
}

size_t Store::NumKeys() {
  for (;;) {
    Result<int64_t> result = DoNumKeys();
    if (result.ok()) return static_cast<size_t>(result.value());
    RecordTransientFailure();
    SleepReal(kLegacyRetryBackoffSeconds);
  }
}

bool Store::DeleteKey(const std::string& key) {
  for (;;) {
    Result<int64_t> result = DoDeleteKey(key);
    if (result.ok()) return result.value() > 0;
    RecordTransientFailure();
    SleepReal(kLegacyRetryBackoffSeconds);
  }
}

size_t Store::DeletePrefix(const std::string& prefix) {
  for (;;) {
    Result<int64_t> result = DoDeletePrefix(prefix);
    if (result.ok()) return static_cast<size_t>(result.value());
    RecordTransientFailure();
    SleepReal(kLegacyRetryBackoffSeconds);
  }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

bool Store::MaybeInjectFault() {
  MutexLock lock(&fault_mutex_);
  if (fault_budget_ > 0) {
    --fault_budget_;
    ++transient_failures_;
    return true;
  }
  if (fault_probability_ > 0.0 && fault_rng_ != nullptr &&
      fault_rng_->Uniform() < fault_probability_) {
    ++transient_failures_;
    return true;
  }
  return false;
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

void Store::InjectTransientFaults(uint64_t seed, double probability) {
  // ddplint: allow(check-in-comm) test-harness argument precondition, not a
  // runtime collective failure.
  DDPKIT_CHECK(probability >= 0.0 && probability < 1.0);
  MutexLock lock(&fault_mutex_);
  fault_probability_ = probability;
  fault_rng_ = std::make_unique<Rng>(seed);
}

uint64_t Store::transient_failures() const {
  MutexLock lock(&fault_mutex_);
  return transient_failures_;
}

// ---------------------------------------------------------------------------
// Retryable tier: bounded, typed, policy-clocked. Injected faults and real
// primitive-layer transport failures share one attempt budget.
// ---------------------------------------------------------------------------

Status Store::SetWithRetry(const std::string& key, std::string value,
                           const RetryPolicy& policy) {
  RetryClock clock(policy);
  double backoff = policy.initial_backoff_seconds;
  for (int attempt = 1;; ++attempt) {
    if (!MaybeInjectFault()) {
      const Status status = DoSet(key, value);
      if (status.ok()) return Status::OK();
      RecordTransientFailure();
    }
    if (attempt >= policy.max_attempts) {
      return Status::Internal("store Set('" + key +
                              "') failed transiently on all " +
                              std::to_string(policy.max_attempts) +
                              " attempts");
    }
    clock.SleepBackoff(backoff);
    backoff *= policy.backoff_multiplier;
  }
}

Status Store::AddWithRetry(const std::string& key, int64_t delta,
                           int64_t* result, const RetryPolicy& policy) {
  RetryClock clock(policy);
  double backoff = policy.initial_backoff_seconds;
  for (int attempt = 1;; ++attempt) {
    if (!MaybeInjectFault()) {
      Result<int64_t> value = DoAdd(key, delta);
      if (value.ok()) {
        if (result != nullptr) *result = value.value();
        return Status::OK();
      }
      if (IsRequestError(value.status())) return value.status();
      RecordTransientFailure();
    }
    if (attempt >= policy.max_attempts) {
      return Status::Internal("store Add('" + key +
                              "') failed transiently on all " +
                              std::to_string(policy.max_attempts) +
                              " attempts");
    }
    clock.SleepBackoff(backoff);
    backoff *= policy.backoff_multiplier;
  }
}

Result<std::string> Store::GetWithRetry(const std::string& key,
                                        double timeout_seconds,
                                        const RetryPolicy& policy) {
  DDPKIT_RETURN_IF_ERROR(CheckBoundedTimeout(timeout_seconds));
  RetryClock clock(policy);
  double backoff = policy.initial_backoff_seconds;
  int failed_attempts = 0;
  // One iteration = one attempt against the store. On the real clock a
  // healthy attempt blocks server-side for the remaining budget, so a miss
  // is final; on the virtual clock attempts are immediate polls and the
  // deadline accrues through virtual backoff, so a miss costs backoff and
  // polls again.
  for (;;) {
    const bool faulted = MaybeInjectFault();
    if (!faulted) {
      const double remaining = timeout_seconds - clock.Elapsed();
      if (remaining <= 0.0) {
        return Status::TimedOut("store key '" + key + "' not set within " +
                                std::to_string(timeout_seconds) + "s");
      }
      Result<std::string> result =
          DoGetBounded(key, clock.real() ? remaining : 0.0);
      if (result.ok()) return result;
      if (result.status().code() == StatusCode::kTimedOut) {
        if (clock.real()) {
          return Status::TimedOut("store key '" + key + "' not set within " +
                                  std::to_string(timeout_seconds) + "s");
        }
        clock.SleepBackoff(backoff);
        backoff *= policy.backoff_multiplier;
        continue;
      }
      if (IsRequestError(result.status())) return result.status();
      RecordTransientFailure();  // transport failure from a wire subclass
    }
    if (++failed_attempts >= policy.max_attempts) {
      return Status::Internal("store Get('" + key +
                              "') failed transiently on all " +
                              std::to_string(policy.max_attempts) +
                              " attempts");
    }
    if (clock.Elapsed() >= timeout_seconds) {
      return Status::TimedOut("store Get('" + key + "') deadline (" +
                              std::to_string(timeout_seconds) +
                              "s) elapsed during transient-failure retries");
    }
    clock.SleepBackoff(backoff);
    backoff *= policy.backoff_multiplier;
  }
}

}  // namespace ddpkit::comm
