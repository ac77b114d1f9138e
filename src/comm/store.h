#ifndef DDPKIT_COMM_STORE_H_
#define DDPKIT_COMM_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/virtual_clock.h"

namespace ddpkit::comm {

/// Backoff schedule for the retryable Store entry points: attempt, sleep
/// `initial_backoff_seconds`, retry, doubling (by `backoff_multiplier`) up
/// to `max_attempts` total tries.
struct RetryPolicy {
  int max_attempts = 5;
  double initial_backoff_seconds = 0.0005;
  double backoff_multiplier = 2.0;

  /// How backoff sleeps and GetWithRetry deadlines are measured.
  ///  - kReal (default): wall-clock sleeps and deadlines. Mandatory for
  ///    TCP-backed stores, whose peers live in other processes and make
  ///    progress only in real time.
  ///  - kVirtual: no real sleeping — backoff and deadline accrue on
  ///    `virtual_clock`, so sim tests exercise the retry/timeout decision
  ///    tree deterministically (the same injected fault sequence always
  ///    produces the same typed outcome at the same virtual timestamps).
  enum class ClockMode { kReal, kVirtual };
  ClockMode clock_mode = ClockMode::kReal;
  /// Required when clock_mode == kVirtual; ignored otherwise.
  sim::VirtualClock* virtual_clock = nullptr;
};

/// Rendezvous key-value store with blocking waits — the equivalent of
/// PyTorch's TCPStore. Process groups use it to agree on membership before
/// any collective runs ("the first arrival will block waiting until the
/// last instance joins", paper §3.3).
///
/// This base class IS the in-memory store (`Store s;` works as before,
/// backing thread-backed sim worlds where all ranks share one address
/// space). The wire backend subclasses it: StoreClientTcp (comm/store_tcp.h)
/// overrides the `Do*` primitive layer with framed RPCs to a StoreServerTcp,
/// so every consumer — rendezvous, reducer layout validation, elastic
/// recovery — runs unchanged against either transport.
///
/// Two API tiers:
///  - the legacy blocking ops (Set/Get/Add/Wait) assume a healthy store
///    and block (retrying transparently, forever) on missing keys or an
///    unreachable server;
///  - the *WithRetry ops model a flaky path to the store service: they
///    honor a RetryPolicy with exponential backoff, bound waits with
///    deadlines, and return Status instead of blocking forever. Transient
///    faults — injected via InjectTransientFaults, or real transport
///    failures from a TCP subclass — apply only to this tier's budget.
class Store {
 public:
  Store() = default;
  virtual ~Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  void Set(const std::string& key, std::string value);

  /// Blocks until the key exists, then returns its value.
  std::string Get(const std::string& key);

  /// Non-blocking lookup.
  bool TryGet(const std::string& key, std::string* value);

  /// Atomically adds `delta` to an integer-valued key (creating it at 0)
  /// and returns the new value. A value that is not an integer, or a sum
  /// past int64, aborts the caller with the typed message: this tier has
  /// no error channel (AddWithRetry returns those as a Status).
  int64_t Add(const std::string& key, int64_t delta);

  /// Blocks until all keys exist.
  void Wait(const std::vector<std::string>& keys);

  size_t NumKeys();

  /// Removes `key`; returns true when it existed. Deleting never wakes
  /// waiters (a delete cannot satisfy a Wait/Get predicate).
  bool DeleteKey(const std::string& key);

  /// Removes every key starting with `prefix`; returns how many were
  /// deleted. Epoch-keyed protocols (bucket-layout validation, rebuild
  /// broadcasts, recovery rendezvous) use this to retire a finished
  /// epoch's namespace so long runs keep a bounded key count.
  size_t DeletePrefix(const std::string& prefix);

  /// Retryable Set: retries transient failures per `policy`; fails with
  /// kInternal once the attempt budget is exhausted.
  [[nodiscard]] Status SetWithRetry(const std::string& key, std::string value,
                                    const RetryPolicy& policy = RetryPolicy());

  /// Retryable Add; on success stores the post-add value in `*result`
  /// (which may be null). A stored value that is not an integer fails
  /// kInvalidArgument and a sum past int64 kOutOfRange, without retrying.
  [[nodiscard]] Status AddWithRetry(const std::string& key, int64_t delta,
                                    int64_t* result,
                                    const RetryPolicy& policy = RetryPolicy());

  /// Retryable bounded Get: waits up to `timeout_seconds` (measured on the
  /// policy's clock) for the key to appear, retrying transient failures per
  /// `policy`. Returns kTimedOut if the key never appears — the
  /// caller-visible difference between "peer is slow" and the legacy Get's
  /// silent hang. A non-finite or negative timeout is kInvalidArgument.
  [[nodiscard]] Result<std::string> GetWithRetry(
      const std::string& key, double timeout_seconds,
      const RetryPolicy& policy = RetryPolicy());

  /// Fault injection for the retryable tier: the next `failure_budget`
  /// retryable attempts fail with a transient error (deterministic), after
  /// which the store is healthy again. Complements the seeded overload.
  void InjectTransientFaults(int failure_budget);

  /// Seeded probabilistic injection: each retryable attempt independently
  /// fails with `probability`. Same seed => same failure sequence.
  void InjectTransientFaults(uint64_t seed, double probability);

  /// Total transient failures served so far (injected + real transport
  /// failures observed by the retry tier; for test assertions).
  uint64_t transient_failures() const;

 protected:
  /// Primitive layer every public entry point funnels through. The base
  /// implementations are the in-memory store; a wire-backed subclass
  /// overrides them with RPCs and reports transport failures as non-OK
  /// Status. The tiers above retry those as transient; kTimedOut is a
  /// miss, and kInvalidArgument / kOutOfRange reject the request itself
  /// (a non-integer counter, an overflowing Add, a bad timeout), which no
  /// retry can change. `DoGetBounded`/`DoWaitBounded` with a non-positive
  /// timeout are immediate lookups, never waits.
  [[nodiscard]] virtual Status DoSet(const std::string& key,
                                     const std::string& value);
  [[nodiscard]] virtual Status DoTryGet(const std::string& key,
                                        std::string* value, bool* found);
  [[nodiscard]] virtual Result<int64_t> DoAdd(const std::string& key,
                                              int64_t delta);
  [[nodiscard]] virtual Result<std::string> DoGetBounded(
      const std::string& key, double timeout_seconds);
  [[nodiscard]] virtual Status DoWaitBounded(
      const std::vector<std::string>& keys, double timeout_seconds);
  [[nodiscard]] virtual Result<int64_t> DoNumKeys();
  [[nodiscard]] virtual Result<int64_t> DoDeleteKey(const std::string& key);
  [[nodiscard]] virtual Result<int64_t> DoDeletePrefix(
      const std::string& prefix);

  /// kInvalidArgument unless `timeout_seconds` is finite and non-negative.
  /// Checked where a timeout arrives: GetWithRetry and the TCP server.
  [[nodiscard]] static Status CheckBoundedTimeout(double timeout_seconds);

  /// Records a real transport failure against the transient counter so
  /// tests can assert on retried wire errors the same way as injected ones.
  void RecordTransientFailure();

 private:
  /// True when this attempt should fail transiently (consumes budget/RNG).
  bool MaybeInjectFault() EXCLUDES(fault_mutex_);

  /// Protects the key-value map; cv_ signals key arrivals. Ordered before
  /// fault_mutex_ in the DESIGN.md §8 hierarchy (store.mutex ≺ store.fault
  /// in tools/ddplint/lock_order.txt), though the two never nest today:
  /// MaybeInjectFault runs outside mutex_ by the EXCLUDES contract above.
  mutable Mutex mutex_ ACQUIRED_BEFORE(fault_mutex_);
  CondVar cv_;
  std::map<std::string, std::string> data_ GUARDED_BY(mutex_);

  /// Separate leaf lock for the fault-injection state so injection checks
  /// never contend with data-plane waits.
  mutable Mutex fault_mutex_;
  int fault_budget_ GUARDED_BY(fault_mutex_) = 0;
  double fault_probability_ GUARDED_BY(fault_mutex_) = 0.0;
  std::unique_ptr<Rng> fault_rng_ GUARDED_BY(fault_mutex_);
  uint64_t transient_failures_ GUARDED_BY(fault_mutex_) = 0;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_STORE_H_
