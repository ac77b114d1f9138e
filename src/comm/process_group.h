#ifndef DDPKIT_COMM_PROCESS_GROUP_H_
#define DDPKIT_COMM_PROCESS_GROUP_H_

#include <memory>
#include <string>

#include "comm/work.h"
#include "sim/virtual_clock.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {

class Store;

/// Reduction operators for AllReduce. kSum is the gradient path; kBor backs
/// the globally-unused-parameter bitmap (paper §3.2.3 — the bitmap cannot
/// be coalesced into gradient all-reduces because of the dtype mismatch).
enum class ReduceOp { kSum, kMax, kBor };
const char* ReduceOpName(ReduceOp op);

/// Uniform API over collective backends, mirroring c10d::ProcessGroup
/// (paper §3.3): "DDP takes the APIs from the three libraries and wraps
/// them into the same ProcessGroup API". All ranks must issue the same
/// sequence of collectives with matching sizes and dtypes; a mismatch fails
/// the collective with kFailedPrecondition instead of the paper's
/// "incorrect reduction result or program crash".
class ProcessGroup {
 public:
  virtual ~ProcessGroup() = default;

  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  int rank() const { return rank_; }
  int world() const { return world_; }

  /// In-place all-reduce of a contiguous tensor (float32, uint8 or int64
  /// under any op; float16 under kSum).
  /// Asynchronous: returns a Work the caller must eventually Wait on.
  [[nodiscard]] virtual WorkHandle AllReduce(
      Tensor tensor, ReduceOp op = ReduceOp::kSum) = 0;

  /// In-place broadcast from `root`.
  [[nodiscard]] virtual WorkHandle Broadcast(Tensor tensor, int root) = 0;

  /// Gathers each rank's `input` (same numel everywhere) into `output`,
  /// which must have world()*input.numel() elements.
  [[nodiscard]] virtual WorkHandle AllGather(const Tensor& input,
                                             Tensor output) = 0;

  /// Reduces all contributions into `root`'s tensor only; other ranks'
  /// tensors are unchanged.
  [[nodiscard]] virtual WorkHandle Reduce(Tensor tensor, int root,
                                          ReduceOp op = ReduceOp::kSum) = 0;

  /// Ring reduce-scatter: `input` has world()*chunk elements on every
  /// rank; `output` (chunk elements) receives this rank's fully-reduced
  /// chunk. The building block of ring all-reduce (§2.3) and of sharded
  /// optimizers.
  [[nodiscard]] virtual WorkHandle ReduceScatter(
      const Tensor& input, Tensor output, ReduceOp op = ReduceOp::kSum) = 0;

  /// Gathers every rank's `input` into `output` on `root` only (`output`
  /// may be undefined on other ranks).
  [[nodiscard]] virtual WorkHandle Gather(const Tensor& input,
                                          Tensor output, int root) = 0;

  /// Synchronous barrier across all ranks.
  virtual void Barrier() = 0;

  /// This rank's virtual clock (advanced by collective completions).
  virtual sim::VirtualClock* clock() = 0;

  /// Rendezvous store this group was created through, or nullptr when the
  /// backend has none. DDP uses it for out-of-band desync detection
  /// (cross-rank bucket-layout validation) — the paper's Discussion notes
  /// a desynchronized rank otherwise surfaces only as a hang or crash.
  virtual Store* store() { return nullptr; }

  /// Human-readable backend tag ("nccl", "gloo", "round_robin[...]").
  virtual std::string backend_name() const = 0;

  /// Elastic-recovery generation this group was formed at. Groups formed by
  /// normal startup are generation 0; every completed rendezvous after a
  /// fault forms its replacement at the next generation. Backends without
  /// elastic support report 0.
  virtual uint64_t generation() const { return 0; }

  /// Non-zero once AbortGroup has retired this group: the generation that
  /// replaced it. Zero while the group is live.
  virtual uint64_t superseded_by() const { return 0; }

  /// Retires this group in favour of generation `new_generation`:
  /// in-flight collectives fail with kInvalidGeneration and every later
  /// collective fails fast the same way, so a straggler still holding this
  /// group can never corrupt (or hang on) a reduction that its surviving
  /// peers have abandoned. Idempotent; the first abort's verdict stands.
  /// Default is a no-op for backends without elastic support.
  virtual void AbortGroup(uint64_t new_generation, const std::string& reason) {
    (void)new_generation;
    (void)reason;
  }

 protected:
  ProcessGroup(int rank, int world) : rank_(rank), world_(world) {}

 private:
  int rank_;
  int world_;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_PROCESS_GROUP_H_
