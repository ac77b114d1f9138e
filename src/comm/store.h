#ifndef DDPKIT_COMM_STORE_H_
#define DDPKIT_COMM_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ddpkit::comm {

/// Rendezvous key-value store with bounded waits — the equivalent of
/// PyTorch's TCPStore. Process groups use it to agree on membership before
/// any collective runs ("the first arrival will block waiting until the
/// last instance joins", paper §3.3).
///
/// This base class IS the in-memory store (`Store s;` backs thread-backed
/// sim worlds, where all ranks share one address space). The wire backend
/// subclasses it: StoreClientTcp (comm/store_tcp.h) overrides the five
/// `Do*` primitives with framed RPCs to a StoreServerTcp, so every consumer
/// — rendezvous, reducer layout validation, elastic recovery — runs
/// unchanged against either transport.
///
/// One tier: every public op runs its primitive through one attempt loop.
/// A transient failure — an injected fault, or a transport error from a
/// wire subclass — is retried. A miss (kTimedOut) and a rejected request
/// (kInvalidArgument, kOutOfRange) are answers, not failures.
///  - The typed *WithRetry ops make at most kMaxAttempts tries, 0.5 ms
///    apart and doubling, then fail kInternal. The rendezvous, the process
///    groups and the reducer call only these, so none of their Store calls
///    blocks without bound.
///  - Set, Get and NumKeys are blocking conveniences: they assume a
///    healthy store and retry forever, 10 ms apart. Benches and tests use
///    them; in src/ only the TCP server calls one, NumKeys on its
///    in-memory store, which has no transport to fail. NumKeys has no
///    typed twin because only the key-count-bound tests read it.
class Store {
 public:
  /// Tries a typed op makes before it fails kInternal.
  static constexpr int kMaxAttempts = 5;

  Store() = default;
  virtual ~Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  void Set(const std::string& key, std::string value);

  /// Blocks until the key exists, then returns its value.
  std::string Get(const std::string& key);

  size_t NumKeys();

  [[nodiscard]] Status SetWithRetry(const std::string& key, std::string value);

  /// Atomically adds `delta` to an integer-valued key (creating it at 0); on
  /// success stores the post-add value in `*result` (which may be null). A
  /// stored value that is not an integer fails kInvalidArgument and a sum
  /// past int64 kOutOfRange.
  [[nodiscard]] Status AddWithRetry(const std::string& key, int64_t delta,
                                    int64_t* result);

  /// Waits up to `timeout_seconds` of wall time for the key to appear; 0 is
  /// one immediate lookup. Returns kTimedOut if the key never appears — the
  /// caller-visible difference between "peer is slow" and a silent hang. A
  /// non-finite or negative timeout is kInvalidArgument.
  [[nodiscard]] Result<std::string> GetWithRetry(const std::string& key,
                                                 double timeout_seconds);

  /// Removes every key starting with `prefix`; returns how many went.
  /// Epoch-keyed protocols (bucket-layout validation, rebuild broadcasts,
  /// recovery rendezvous) use this to retire a finished epoch's namespace
  /// so long runs keep a bounded key count.
  [[nodiscard]] Result<int64_t> DeletePrefixWithRetry(
      const std::string& prefix);

  /// Fault injection: the next `failure_budget` attempts fail with a
  /// transient error (deterministic), after which the store is healthy
  /// again.
  void InjectTransientFaults(int failure_budget);

  /// Total transient failures served so far (injected + real transport
  /// failures; for test assertions).
  uint64_t transient_failures() const;

 protected:
  /// Primitive layer every public op funnels through. The base
  /// implementations are the in-memory store; a wire-backed subclass
  /// overrides them with RPCs and reports transport failures as non-OK
  /// Status (neither kTimedOut nor a request-rejection code), which the
  /// attempt loop retries. `DoGetBounded` with a zero timeout is an
  /// immediate lookup.
  [[nodiscard]] virtual Status DoSet(const std::string& key,
                                     const std::string& value);
  [[nodiscard]] virtual Result<int64_t> DoAdd(const std::string& key,
                                              int64_t delta);
  [[nodiscard]] virtual Result<std::string> DoGetBounded(
      const std::string& key, double timeout_seconds);
  [[nodiscard]] virtual Result<int64_t> DoNumKeys();
  [[nodiscard]] virtual Result<int64_t> DoDeletePrefix(
      const std::string& prefix);

 private:
  /// How the attempt loop treats transient failures: the typed ops give up
  /// after kMaxAttempts, the conveniences never do.
  enum class Budget { kBounded, kForever };

  /// The one attempt loop. Runs `attempt` until it succeeds or, for a
  /// kBounded budget, returns a miss or a rejected request, or until the
  /// attempts run out. Under kForever it returns only OK: misses re-issue
  /// at once (the blocking Get) and every other failure pauses and retries.
  [[nodiscard]] Status Retry(const char* op, const std::string& key,
                             Budget budget,
                             const std::function<Status()>& attempt);

  /// True when this attempt should fail transiently (consumes budget).
  bool TakeInjectedFault() EXCLUDES(fault_mutex_);

  void RecordTransientFailure() EXCLUDES(fault_mutex_);

  /// Protects the key-value map; cv_ signals key arrivals. Ordered before
  /// fault_mutex_ in the DESIGN.md §8 hierarchy (store.mutex ≺ store.fault
  /// in tools/ddplint/lock_order.txt), though the two never nest today:
  /// the attempt loop touches the fault state outside mutex_.
  mutable Mutex mutex_ ACQUIRED_BEFORE(fault_mutex_);
  CondVar cv_;
  std::map<std::string, std::string> data_ GUARDED_BY(mutex_);

  /// Separate leaf lock for the fault-injection state so injection checks
  /// never contend with data-plane waits.
  mutable Mutex fault_mutex_;
  int fault_budget_ GUARDED_BY(fault_mutex_) = 0;
  uint64_t transient_failures_ GUARDED_BY(fault_mutex_) = 0;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_STORE_H_
