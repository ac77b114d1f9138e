#ifndef DDPKIT_COMMON_METRICS_H_
#define DDPKIT_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ddpkit {

/// Monotonic event count. Lock-free; safe to bump from rank threads.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) {
    MutexLock lock(&mutex_);
    value_ = value;
  }
  double value() const {
    MutexLock lock(&mutex_);
    return value_;
  }

 private:
  mutable Mutex mutex_;
  double value_ GUARDED_BY(mutex_) = 0.0;
};

/// Sample distribution with exact quantiles. Samples are retained (the
/// per-iteration cardinalities here are small — thousands, not millions),
/// so p50/p95/p99 are true percentiles rather than sketch estimates.
class Histogram {
 public:
  /// All summary fields captured under one lock acquisition, so the numbers
  /// are mutually consistent even while other threads keep recording.
  struct Summary {
    size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  void Record(double sample);

  size_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Linear-interpolation percentile, q in [0, 1]. Returns 0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }

  /// Atomic multi-field snapshot. Prefer this over chaining the scalar
  /// accessors when the fields must agree with each other (each scalar call
  /// locks independently, so a writer between two calls tears the view).
  Summary Snapshot() const;

  std::vector<double> snapshot() const;

 private:
  double QuantileLocked(double q) const REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<double> samples_ GUARDED_BY(mutex_);
  /// Sorted lazily on quantile queries; valid while no Record intervened.
  mutable std::vector<double> sorted_ GUARDED_BY(mutex_);
  mutable bool sorted_valid_ GUARDED_BY(mutex_) = false;
  double sum_ GUARDED_BY(mutex_) = 0.0;
};

/// Named metric registry: the process-level sink for DDP runtime telemetry
/// (reducer, DDP wrapper, simulated process group). Metrics are created on
/// first use and live as long as the registry; returned references stay
/// valid, so hot paths can cache them. ToJson() renders the full registry
/// for the BENCH_*.json emitters and test assertions.
///
/// Thread-safe: creation is serialized, and each metric type synchronizes
/// its own updates.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,p50,p95,p99}}} — keys sorted (std::map) for stable diffs.
  json::Value ToJson() const;

  size_t NumMetrics() const;

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
};

}  // namespace ddpkit

#endif  // DDPKIT_COMMON_METRICS_H_
