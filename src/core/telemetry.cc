#include "core/telemetry.h"

namespace ddpkit::core {

json::Value DDPTelemetry::ToJson() const {
  json::Array buckets_json;
  for (const BucketTelemetry& b : buckets) {
    buckets_json.emplace_back(
        json::Object{{"bucket", b.bucket},
                     {"bytes", b.bytes},
                     {"launch_seconds", b.launch_seconds},
                     {"completion_seconds", b.completion_seconds},
                     {"wait_seconds", b.wait_seconds}});
  }
  return json::Object{
      {"iteration", iteration},
      {"rank", rank},
      {"synced", synced},
      {"forward_seconds", forward_seconds},
      {"backward_compute_seconds", backward_compute_seconds},
      {"allreduce_wait_seconds", allreduce_wait_seconds},
      {"overlap_seconds", overlap_seconds},
      {"comm_seconds", comm_seconds},
      {"copy_in_seconds", copy_in_seconds},
      {"copy_out_seconds", copy_out_seconds},
      {"rebuilds", rebuilds},
      {"sync_failures", sync_failures},
      {"param_compute_seconds", json::Array(param_compute_seconds.begin(),
                                            param_compute_seconds.end())},
      {"buckets", std::move(buckets_json)}};
}

void TelemetryLog::Append(DDPTelemetry record) {
  MutexLock lock(&mutex_);
  records_.push_back(std::move(record));
}

void TelemetryLog::Clear() {
  MutexLock lock(&mutex_);
  records_.clear();
}

size_t TelemetryLog::size() const {
  MutexLock lock(&mutex_);
  return records_.size();
}

std::vector<DDPTelemetry> TelemetryLog::snapshot() const {
  MutexLock lock(&mutex_);
  return records_;
}

json::Value TelemetryLog::ToJson() const {
  json::Array iterations;
  for (const DDPTelemetry& record : snapshot()) {
    iterations.push_back(record.ToJson());
  }
  return json::Object{{"iterations", std::move(iterations)}};
}

Status TelemetryLog::WriteJson(const std::string& path) const {
  return json::WriteFile(path, json::Serialize(ToJson()));
}

}  // namespace ddpkit::core
