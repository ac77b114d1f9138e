#ifndef DDPKIT_COMM_ALGORITHMS_H_
#define DDPKIT_COMM_ALGORITHMS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/process_group.h"
#include "sim/collective_algo.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {

/// Collective algorithms, each written once as the *step program* one rank
/// runs. The paper (§2.3) notes that collective libraries implement ring-
/// and tree-based algorithms rather than naive gather+reduce; the zoo here
/// (naive, ring, tree, pipelined chunked ring, recursive halving-doubling,
/// hierarchical two-level) is built by BuildProgram as a list of sends,
/// receives and local combines over spans of the rank's own buffers.
///
/// Two executors run the same programs. RunPrograms steps every rank's
/// program in one address space, matching each send with its receive; it
/// backs ProcessGroupSim and the Run* entry points below. ProcessGroupTcp
/// runs one rank's program over its sockets. The combine order lives in the
/// program, so a TCP run is bit-identical to the simulator by construction.
///
/// The enum lives in the sim layer (sim::CollectiveAlgorithm) so the
/// analytical cost models and the programs key off one type; that header
/// documents each variant's canonical combine order.
using Algorithm = sim::CollectiveAlgorithm;
const char* AlgorithmName(Algorithm algorithm);

/// The collectives of the ProcessGroup API. The values double as the wire
/// codes of ProcessGroupTcp's per-collective header.
enum class Collective : uint8_t {
  kAllReduce = 1,
  kBroadcast,
  kAllGather,
  kReduce,
  kReduceScatter,
  kGather,
  kBarrier,
};
const char* CollectiveName(Collective kind);

/// The one kAuto resolution (message size x world x host layout) every
/// caller shares. Ranks are laid out host-major, `ranks_per_node` per host;
/// 0 means the testbed default of 8. Concrete algorithms pass through.
Algorithm ResolveAlgorithm(Algorithm algorithm, size_t bytes, int world,
                           int ranks_per_node);

/// Issue-time check both backends run before a collective joins the group's
/// sequence: the (collective, dtype, op) support table plus the shape
/// rules. `tensor` is the in-place tensor (AllReduce, Broadcast, Reduce) or
/// the input (AllGather, ReduceScatter, Gather); `output` is the latter
/// three's output and may be undefined on Gather's non-root ranks. Returns
/// null for a valid call, else a Work already failed with
/// kFailedPrecondition at `now`. A rejected call consumes no sequence
/// number, so the rank's next valid collective still pairs with its peers.
[[nodiscard]] WorkHandle RejectInvalidCollective(Collective kind, ReduceOp op,
                                                 int root, int rank, int world,
                                                 const Tensor& tensor,
                                                 const Tensor& output,
                                                 double now);

/// Everything a step program is built from. `numel` counts elements per
/// rank: the tensor of AllReduce/Broadcast/Reduce, the input of
/// AllGather/Gather, the output chunk of ReduceScatter. `algorithm` and
/// `ranks_per_node` shape AllReduce only (kAuto resolves through
/// ResolveAlgorithm); float16 all-reduces always run the fp32-accumulating
/// star at rank 0.
struct ProgramSpec {
  Collective kind = Collective::kAllReduce;
  DType dtype = DType::kFloat32;
  int world = 1;
  int root = 0;
  int64_t numel = 0;
  Algorithm algorithm = Algorithm::kRing;
  int ranks_per_node = 0;
};

/// A program's buffers: the collective's data (the in-place tensor, or the
/// output of AllGather/ReduceScatter/Gather), its input, and two scratch
/// areas sized by the program itself.
enum ProgramBuffer : uint8_t { kData, kInput, kScratch0, kScratch1 };
inline constexpr int kNumProgramBuffers = 4;

/// `len` elements at `offset` of one program buffer.
struct Span {
  ProgramBuffer buf = kData;
  int64_t offset = 0;
  int64_t len = 0;
};

/// One step of a rank's program. `in` is only read, `out` only written.
struct Step {
  enum Kind : uint8_t {
    kSend,      // in -> send_peer
    kRecv,      // out <- recv_peer
    kSendRecv,  // in -> send_peer while out <- recv_peer
    kCombine,   // out = out (+) in, elementwise; `out` is the left operand
    kCopy,      // out = in
    kFp16Sum,   // out = half(0 + out + each out.len block of in), fp32 sums
  };
  Kind kind = kCopy;
  Span out;
  Span in;
  int send_peer = -1;
  int recv_peer = -1;

  bool local() const { return kind >= kCombine; }
};

struct Program {
  std::vector<Step> steps;
  int64_t scratch[2] = {0, 0};  // elements of kScratch0 and kScratch1
};

/// Rank `rank`'s program for `spec`. Deterministic: every rank derives the
/// whole schedule from the spec alone.
Program BuildProgram(const ProgramSpec& spec, int rank);

/// Base pointers of one rank's program buffers; owns the scratch, which
/// starts uninitialized: every program writes a scratch span before it
/// reads it.
class ProgramBuffers {
 public:
  ProgramBuffers(const Program& program, size_t elem_size, void* data,
                 const void* input);

  uint8_t* at(const Span& span) const {
    return base_[span.buf] + static_cast<size_t>(span.offset) * elem_size_;
  }
  size_t bytes(const Span& span) const {
    return static_cast<size_t>(span.len) * elem_size_;
  }

 private:
  std::unique_ptr<uint8_t[]> scratch_[2];
  uint8_t* base_[kNumProgramBuffers];
  size_t elem_size_;
};

/// Runs one local step (kCombine, kCopy, kFp16Sum), element-split across
/// the intra-op pool: each element sees the same combine sequence at any
/// pool size, so results are bit-exact across thread counts. Holds the only
/// combine loop in the tree.
void RunLocalStep(const Step& step, DType dtype, ReduceOp op,
                  const ProgramBuffers& bufs);

/// The in-memory executor: builds every rank's program for `spec` and steps
/// them in the calling thread, copying each send straight into its matching
/// receive. data[r] / input[r] are rank r's kData / kInput tensors (input
/// undefined where the collective has none, data undefined on Gather's
/// non-root ranks).
void RunInMemory(const ProgramSpec& spec, ReduceOp op,
                 const std::vector<Tensor>& data,
                 const std::vector<Tensor>& input);

/// In-place all-reduce across per-rank contributions: on return every
/// tensor holds the elementwise reduction of all of them. Tensors must be
/// contiguous, same numel, same dtype (float32, uint8, int64 or float16).
/// `ranks_per_node` places kHierarchical's node boundaries and feeds kAuto
/// (0 = 8 ranks per host).
void RunAllReduce(Algorithm algorithm, ReduceOp op,
                  const std::vector<Tensor>& tensors, int ranks_per_node = 0);

/// Raw-buffer all-reduce: bufs[r] points at rank r's `n` elements, reduced
/// in place across all ranks. Same programs as the Tensor overload; exposed
/// so tests and benches can sweep dtypes the Tensor layer only partially
/// supports (double). Instantiated for float, double, int64_t and uint8_t.
template <typename T>
void RunAllReduceRaw(Algorithm algorithm, ReduceOp op,
                     const std::vector<T*>& bufs, int64_t n,
                     int ranks_per_node = 0);

/// Copies tensors[root] into every other tensor.
void RunBroadcast(const std::vector<Tensor>& tensors, int root);

/// Concatenates inputs (rank order) into every output: outputs[q] must have
/// world * inputs[r].numel() elements.
void RunAllGather(const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& outputs);

/// Reduces all contributions into tensors[root] only (other tensors are
/// left untouched), combining the other ranks in ascending order.
void RunReduce(ReduceOp op, const std::vector<Tensor>& tensors, int root);

/// Ring reduce-scatter: inputs[r] has world*n elements; outputs[r] (n
/// elements) receives the fully-reduced chunk r. This is literally the
/// first phase of the ring all-reduce (paper §2.3), exposed on its own.
void RunReduceScatter(ReduceOp op, const std::vector<Tensor>& inputs,
                      const std::vector<Tensor>& outputs);

/// Gathers every rank's input into output_root (world*n elements) in rank
/// order; only the root's output is written.
void RunGather(const std::vector<Tensor>& inputs, Tensor output_root,
               int root);

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_ALGORITHMS_H_
