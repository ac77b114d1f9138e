#include "common/metrics.h"

#include <algorithm>

#include "common/stats.h"

namespace ddpkit {

void Histogram::Record(double sample) {
  MutexLock lock(&mutex_);
  samples_.push_back(sample);
  sum_ += sample;
  sorted_valid_ = false;
}

size_t Histogram::count() const {
  MutexLock lock(&mutex_);
  return samples_.size();
}

double Histogram::sum() const {
  MutexLock lock(&mutex_);
  return sum_;
}

double Histogram::min() const {
  MutexLock lock(&mutex_);
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  MutexLock lock(&mutex_);
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::QuantileLocked(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return Percentile(sorted_, q);
}

double Histogram::Quantile(double q) const {
  MutexLock lock(&mutex_);
  return QuantileLocked(q);
}

Histogram::Summary Histogram::Snapshot() const {
  MutexLock lock(&mutex_);
  Summary s;
  s.count = samples_.size();
  s.sum = sum_;
  if (!samples_.empty()) {
    s.min = *std::min_element(samples_.begin(), samples_.end());
    s.max = *std::max_element(samples_.begin(), samples_.end());
  }
  s.p50 = QuantileLocked(0.50);
  s.p95 = QuantileLocked(0.95);
  s.p99 = QuantileLocked(0.99);
  return s;
}

std::vector<double> Histogram::snapshot() const {
  MutexLock lock(&mutex_);
  return samples_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

size_t MetricsRegistry::NumMetrics() const {
  MutexLock lock(&mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

json::Value MetricsRegistry::ToJson() const {
  // Hold the creation lock only to read the lock-free counters and copy the
  // other pointer maps; each gauge's and histogram's own lock serializes
  // against concurrent updates while rendering.
  json::Object counters_json;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    MutexLock lock(&mutex_);
    for (const auto& [name, c] : counters_) {
      counters_json.emplace_back(name, c->value());
    }
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g.get());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
  }

  json::Object gauges_json;
  json::Object histograms_json;
  for (const auto& [name, g] : gauges) {
    gauges_json.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms) {
    // One locked snapshot per histogram: rendering via the individual
    // accessors would take the lock seven times, letting a concurrent
    // Record() tear the view (e.g. count from before a sample, sum from
    // after it).
    const Histogram::Summary s = h->Snapshot();
    histograms_json.emplace_back(
        name, json::Object{{"count", s.count}, {"sum", s.sum},
                           {"min", s.min},     {"max", s.max},
                           {"p50", s.p50},     {"p95", s.p95},
                           {"p99", s.p99}});
  }
  return json::Object{{"counters", std::move(counters_json)},
                      {"gauges", std::move(gauges_json)},
                      {"histograms", std::move(histograms_json)}};
}

}  // namespace ddpkit
