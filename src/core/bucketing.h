#ifndef DDPKIT_CORE_BUCKETING_H_
#define DDPKIT_CORE_BUCKETING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ddpkit::core {

/// Size/placement metadata for one parameter tensor, in
/// model.parameters() (registration/forward) order.
struct ParamMeta {
  int64_t numel = 0;
  size_t bytes = 0;
  int device_id = 0;
};

/// Parameter-to-bucket assignment. Buckets are listed in *launch order*:
/// bucket 0 holds the gradients expected to be ready first (the tail of
/// parameters()), per the paper's reverse-order heuristic (§3.2.3).
/// Within a bucket, indices are in bucket-offset order.
struct BucketAssignment {
  std::vector<std::vector<size_t>> buckets;  // bucket -> param indices

  size_t num_buckets() const { return buckets.size(); }
  std::string ToString(const std::vector<ParamMeta>& params) const;
};

/// Assigns parameters (given in registration order) to buckets by walking
/// them in *reverse* order and packing greedily up to `bucket_cap_bytes`
/// per bucket (Algorithm 1 line 4). Rules:
///   - `bucket_cap_bytes == 0` means one bucket per gradient — the paper's
///     "0 MB" baseline where every gradient is communicated on its own.
///   - A single parameter larger than the cap gets a bucket to itself.
///   - Parameters on different devices never share a bucket (buckets live
///     on the same device as their parameters, §4.2).
///   - `first_bucket_cap_bytes` (0 = same as cap) lets the first-launched
///     bucket be smaller so communication starts earlier.
BucketAssignment AssignBuckets(const std::vector<ParamMeta>& params,
                               size_t bucket_cap_bytes,
                               size_t first_bucket_cap_bytes = 0);

/// Re-assigns buckets according to an observed gradient-ready order (the
/// §6.2.1 "gradient order prediction" extension): `ready_order` lists
/// parameter indices in the order their hooks fired last backward; buckets
/// then pack in exactly that order instead of reverse registration order.
BucketAssignment AssignBucketsFromOrder(const std::vector<ParamMeta>& params,
                                        const std::vector<size_t>& ready_order,
                                        size_t bucket_cap_bytes);

/// Total payload bytes of one bucket.
size_t BucketBytes(const std::vector<ParamMeta>& params,
                   const std::vector<size_t>& bucket);

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_BUCKETING_H_
