#include "core/memory.h"

#include <algorithm>
#include <cstdio>

namespace ddpkit::core {

std::string MemoryEstimate::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "params=%.1fMB grads+buckets=%.1fMB bitmap=%.1fKB "
                "hook=%.1fMB total=%.1fMB",
                parameter_bytes / 1048576.0, bucket_bytes / 1048576.0,
                bitmap_bytes / 1024.0, hook_payload_bytes / 1048576.0,
                Total() / 1048576.0);
  return buf;
}

MemoryEstimate EstimateDdpMemory(const std::vector<ParamMeta>& params,
                                 const ReducerOptions& options) {
  MemoryEstimate estimate;
  for (const ParamMeta& p : params) estimate.parameter_bytes += p.bytes;

  BucketAssignment assignment =
      AssignBuckets(params, options.bucket_cap_bytes);
  size_t max_bucket = 0;
  for (const auto& bucket : assignment.buckets) {
    const size_t bytes = BucketBytes(params, bucket);
    estimate.bucket_bytes += bytes;
    max_bucket = std::max(max_bucket, bytes);
  }

  if (options.find_unused_parameters) {
    // CPU bitmap + device copy (paper §4.2).
    estimate.bitmap_bytes = 2 * params.size();
  }
  if (options.comm_hook != nullptr) {
    // Transient compressed payload for the largest in-flight bucket; the
    // 1-bit hook additionally keeps a full-size error-feedback residual.
    estimate.hook_payload_bytes = static_cast<size_t>(
        static_cast<double>(max_bucket) * options.comm_hook->compression_ratio());
    if (options.comm_hook->name() == "onebit") {
      estimate.hook_payload_bytes += estimate.bucket_bytes;  // residuals
    }
  }
  return estimate;
}

}  // namespace ddpkit::core
