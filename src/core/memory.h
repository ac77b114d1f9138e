#ifndef DDPKIT_CORE_MEMORY_H_
#define DDPKIT_CORE_MEMORY_H_

#include <string>
#include <vector>

#include "core/bucketing.h"
#include "core/reducer.h"

namespace ddpkit::core {

/// Per-rank memory footprint of a DDP configuration. The paper's related
/// work (§7, ZeRO discussion) lists parameters, gradients and buckets as
/// the data-parallel memory contributors DDP replicates on every rank.
/// Gradients are views of their bucket slots, so bucket_bytes is also the
/// gradient memory; compression hooks add transient payload buffers.
struct MemoryEstimate {
  size_t parameter_bytes = 0;
  size_t bucket_bytes = 0;
  size_t bitmap_bytes = 0;
  size_t hook_payload_bytes = 0;

  size_t Total() const {
    return parameter_bytes + bucket_bytes + bitmap_bytes + hook_payload_bytes;
  }
  std::string ToString() const;
};

/// Estimates per-rank steady-state memory for `params` under `options`.
MemoryEstimate EstimateDdpMemory(const std::vector<ParamMeta>& params,
                                 const ReducerOptions& options);

}  // namespace ddpkit::core

#endif  // DDPKIT_CORE_MEMORY_H_
