#include "core/bucketing.h"

#include <sstream>

#include "common/check.h"

namespace ddpkit::core {

namespace {

/// Packs `order` (a permutation of parameter indices, in desired launch
/// order) into buckets respecting caps and device affinity.
BucketAssignment PackInOrder(const std::vector<ParamMeta>& params,
                             const std::vector<size_t>& order,
                             size_t bucket_cap_bytes,
                             size_t first_bucket_cap_bytes) {
  if (first_bucket_cap_bytes == 0) first_bucket_cap_bytes = bucket_cap_bytes;

  BucketAssignment assignment;
  std::vector<size_t> current;
  size_t current_bytes = 0;
  int current_device = -1;

  auto flush = [&] {
    if (!current.empty()) {
      assignment.buckets.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
      current_device = -1;
    }
  };

  for (size_t idx : order) {
    DDPKIT_CHECK_LT(idx, params.size());
    const ParamMeta& p = params[idx];
    const size_t cap = assignment.buckets.empty() ? first_bucket_cap_bytes
                                                  : bucket_cap_bytes;
    const bool device_mismatch =
        current_device >= 0 && p.device_id != current_device;
    const bool over_cap =
        cap == 0 ? !current.empty()
                 : (!current.empty() && current_bytes + p.bytes > cap);
    if (device_mismatch || over_cap) flush();
    current.push_back(idx);
    current_bytes += p.bytes;
    current_device = p.device_id;
    // cap == 0: one gradient per bucket.
    if (cap == 0) flush();
  }
  flush();
  return assignment;
}

}  // namespace

BucketAssignment AssignBuckets(const std::vector<ParamMeta>& params,
                               size_t bucket_cap_bytes,
                               size_t first_bucket_cap_bytes) {
  std::vector<size_t> reverse_order;
  reverse_order.reserve(params.size());
  for (size_t i = params.size(); i-- > 0;) reverse_order.push_back(i);
  return PackInOrder(params, reverse_order, bucket_cap_bytes,
                     first_bucket_cap_bytes);
}

BucketAssignment AssignBucketsFromOrder(const std::vector<ParamMeta>& params,
                                        const std::vector<size_t>& ready_order,
                                        size_t bucket_cap_bytes) {
  DDPKIT_CHECK_EQ(ready_order.size(), params.size())
      << "ready_order must be a permutation of all parameter indices";
  std::vector<uint8_t> seen(params.size(), 0);
  for (size_t idx : ready_order) {
    DDPKIT_CHECK_LT(idx, params.size());
    DDPKIT_CHECK(!seen[idx]) << "duplicate index in ready_order";
    seen[idx] = 1;
  }
  return PackInOrder(params, ready_order, bucket_cap_bytes,
                     /*first_bucket_cap_bytes=*/0);
}

size_t BucketBytes(const std::vector<ParamMeta>& params,
                   const std::vector<size_t>& bucket) {
  size_t total = 0;
  for (size_t idx : bucket) total += params[idx].bytes;
  return total;
}

std::string BucketAssignment::ToString(
    const std::vector<ParamMeta>& params) const {
  std::ostringstream os;
  for (size_t b = 0; b < buckets.size(); ++b) {
    os << "bucket " << b << ": " << buckets[b].size() << " params, "
       << BucketBytes(params, buckets[b]) << " bytes\n";
  }
  return os.str();
}

}  // namespace ddpkit::core
