#include "comm/algorithms.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/vec.h"
#include "tensor/dtype.h"

// ddplint: allow-file(check-in-comm) program-builder and executor internal
// invariants: both backends reject invalid calls at issue time (typed
// kFailedPrecondition via RejectInvalidCollective), so these checks guard
// unreachable-by-contract states (memory-safety bounds, a deadlocked
// program), not recoverable runtime conditions. Direct callers of the Run*
// entries get the same issue-time check as a CHECK.

namespace ddpkit::comm {

const char* AlgorithmName(Algorithm algorithm) {
  return sim::CollectiveAlgorithmName(algorithm);
}

const char* CollectiveName(Collective kind) {
  switch (kind) {
    case Collective::kAllReduce:
      return "all_reduce";
    case Collective::kBroadcast:
      return "broadcast";
    case Collective::kAllGather:
      return "all_gather";
    case Collective::kReduce:
      return "reduce";
    case Collective::kReduceScatter:
      return "reduce_scatter";
    case Collective::kGather:
      return "gather";
    case Collective::kBarrier:
      return "barrier";
  }
  return "unknown";
}

Algorithm ResolveAlgorithm(Algorithm algorithm, size_t bytes, int world,
                           int ranks_per_node) {
  sim::Topology::Options topo;
  if (ranks_per_node > 0) topo.gpus_per_host = ranks_per_node;
  return sim::ResolveAllReduceAlgorithm(algorithm, bytes, world,
                                        sim::Topology(topo));
}

namespace {

/// The (collective, dtype, op) support table. Reductions combine float32,
/// uint8 and int64 under every op; float16 all-reduces sum only (fp32
/// accumulation); ReduceScatter is float32 only; pure data movement takes
/// any dtype.
bool Supported(Collective kind, DType dtype, ReduceOp op) {
  const bool combinable = dtype == DType::kFloat32 ||
                          dtype == DType::kUInt8 || dtype == DType::kInt64;
  switch (kind) {
    case Collective::kAllReduce:
      return combinable || (dtype == DType::kFloat16 && op == ReduceOp::kSum);
    case Collective::kReduce:
      return combinable;
    case Collective::kReduceScatter:
      return dtype == DType::kFloat32;
    default:
      return true;
  }
}

Status CheckCollective(Collective kind, ReduceOp op, int root, int rank,
                       int world, const Tensor& tensor, const Tensor& output) {
  if (!tensor.defined() || !tensor.is_contiguous()) {
    return Status::InvalidArgument("tensor must be defined and contiguous");
  }
  if (!Supported(kind, tensor.dtype(), op)) {
    return Status::InvalidArgument(std::string("unsupported dtype ") +
                                   DTypeName(tensor.dtype()) + " with op " +
                                   ReduceOpName(op));
  }
  const bool rooted = kind == Collective::kBroadcast ||
                      kind == Collective::kReduce ||
                      kind == Collective::kGather;
  if (rooted && (root < 0 || root >= world)) {
    return Status::InvalidArgument("root " + std::to_string(root) +
                                   " outside [0, world)");
  }
  const bool scatter = kind == Collective::kReduceScatter;
  if (!scatter && kind != Collective::kAllGather &&
      !(kind == Collective::kGather && rank == root)) {
    return Status::OK();
  }
  if (!output.defined() || !output.is_contiguous()) {
    return Status::InvalidArgument("output must be defined and contiguous");
  }
  if (output.dtype() != tensor.dtype()) {
    return Status::InvalidArgument("output dtype differs from the input's");
  }
  // ReduceScatter shrinks world * chunk to chunk; the gathers grow n to
  // world * n.
  const int64_t whole = scatter ? tensor.numel() : output.numel();
  const int64_t part = scatter ? output.numel() : tensor.numel();
  if (whole != part * world) {
    return Status::InvalidArgument(
        std::string(scatter ? "input" : "output") + " numel " +
        std::to_string(whole) + " != " + std::to_string(part) + " * world " +
        std::to_string(world));
  }
  return Status::OK();
}

}  // namespace

WorkHandle RejectInvalidCollective(Collective kind, ReduceOp op, int root,
                                   int rank, int world, const Tensor& tensor,
                                   const Tensor& output, double now) {
  const Status status =
      CheckCollective(kind, op, root, rank, world, tensor, output);
  if (status.ok()) return nullptr;
  return FailedWork(Status::FailedPrecondition(
                        std::string(CollectiveName(kind)) + ": rank " +
                        std::to_string(rank) +
                        " issued invalid collective arguments: " +
                        status.message()),
                    now);
}

// ---------------------------------------------------------------------------
// Program builders. Each appends one rank's steps; every rank derives the
// same global schedule, so sends and receives pair up by construction.
// ---------------------------------------------------------------------------

namespace {

void Add(Program& p, Step::Kind kind, Span out, Span in, int send_peer = -1,
         int recv_peer = -1) {
  p.steps.push_back(Step{kind, out, in, send_peer, recv_peer});
}
void Send(Program& p, int peer, Span in) {
  Add(p, Step::kSend, Span{}, in, peer);
}
void Recv(Program& p, int peer, Span out) {
  Add(p, Step::kRecv, out, Span{}, -1, peer);
}
void SendRecv(Program& p, int send_peer, Span in, int recv_peer, Span out) {
  Add(p, Step::kSendRecv, out, in, send_peer, recv_peer);
}
void Combine(Program& p, Span out, Span in) { Add(p, Step::kCombine, out, in); }
void Copy(Program& p, Span out, Span in) { Add(p, Step::kCopy, out, in); }

/// Grows scratch buffer `buf` to at least `n` elements.
Span Scratch(Program& p, ProgramBuffer buf, int64_t offset, int64_t len,
             int64_t n) {
  int64_t& size = p.scratch[buf - kScratch0];
  size = std::max(size, n);
  return Span{buf, offset, len};
}

/// Ranks [lo, hi) in ascending order, without `skip`.
std::vector<int> Ranks(int lo, int hi, int skip = -1) {
  std::vector<int> ranks;
  for (int r = lo; r < hi; ++r) {
    if (r != skip) ranks.push_back(r);
  }
  return ranks;
}

/// Star reduce: `root` receives each of `others` in list order and
/// combines it into its data, its own running value on the left; the
/// others send their data. kNaive's, Reduce's and the hierarchical
/// intra-node order.
void ReduceTo(Program& p, int me, int root, const std::vector<int>& others,
              int64_t n) {
  const Span data{kData, 0, n};
  if (me != root) {
    Send(p, root, data);
    return;
  }
  const Span tmp = Scratch(p, kScratch0, 0, n, n);
  for (int q : others) {
    Recv(p, q, tmp);
    Combine(p, data, tmp);
  }
}

/// Star broadcast of `span` from `root` to `others`, in list order.
void BroadcastFrom(Program& p, int me, int root, const std::vector<int>& others,
                   Span span) {
  if (me != root) {
    Recv(p, root, span);
    return;
  }
  for (int q : others) Send(p, q, span);
}

/// Ring chunking of `n` elements into `num` chunks, the first n % num one
/// element longer. Chunk k belongs to ring position k % ring size.
struct RingChunks {
  int64_t n;
  int64_t num;
  int64_t Begin(int64_t k) const { return n / num * k + std::min(k, n % num); }
  int64_t Size(int64_t k) const { return n / num + (k < n % num ? 1 : 0); }
  int64_t Max() const { return (n + num - 1) / num; }
};

/// Ring reduce-scatter over `ring` (this rank sits at position i) with
/// `cpr` chunks per position, reading contributions from buffer `src`.
/// Chunk k starts at position (k % w) + 1 with that rank's raw value; each
/// next rank combines its own value as the right operand, so the chunk
/// completes at its owner, which installs it into kData: at the chunk's
/// own offset (`in_place`) or at offset 0. Partials ping-pong between the
/// two scratch stages of cpr * max-chunk elements each.
void RingReduceScatter(Program& p, const std::vector<int>& ring, int i,
                       const RingChunks& chunks, int cpr, ProgramBuffer src,
                       bool in_place) {
  const int w = static_cast<int>(ring.size());
  const int next = ring[static_cast<size_t>((i + 1) % w)];
  const int prev = ring[static_cast<size_t>((i + w - 1) % w)];
  const int64_t stage = chunks.Max();
  auto chunk = [&](int k) {
    return Span{src, chunks.Begin(k), chunks.Size(k)};
  };
  auto slot = [&](ProgramBuffer buf, int owner, int j) {
    return Scratch(p, buf, j * stage, chunks.Size(owner + j * w), cpr * stage);
  };
  ProgramBuffer cur = kScratch0;
  ProgramBuffer nxt = kScratch1;
  for (int s = 1; s < w; ++s) {
    const int send_owner = (i - s + w) % w;
    const int recv_owner = (i - 1 - s + 2 * w) % w;
    for (int j = 0; j < cpr; ++j) {
      const Span partial = slot(nxt, recv_owner, j);
      SendRecv(p, next,
               s == 1 ? chunk(send_owner + j * w) : slot(cur, send_owner, j),
               prev, partial);
      Combine(p, partial, chunk(recv_owner + j * w));
    }
    std::swap(cur, nxt);
  }
  for (int j = 0; j < cpr; ++j) {
    const int k = i + j * w;
    Copy(p, Span{kData, in_place ? chunks.Begin(k) : 0, chunks.Size(k)},
         w == 1 ? chunk(k) : slot(cur, i, j));
  }
}

/// Ring all-gather of the owners' finished chunks in kData: step s passes
/// on the chunks received at step s-1.
void RingAllGather(Program& p, const std::vector<int>& ring, int i,
                   const RingChunks& chunks, int cpr) {
  const int w = static_cast<int>(ring.size());
  const int next = ring[static_cast<size_t>((i + 1) % w)];
  const int prev = ring[static_cast<size_t>((i + w - 1) % w)];
  auto chunk = [&](int k) {
    return Span{kData, chunks.Begin(k), chunks.Size(k)};
  };
  for (int s = 1; s < w; ++s) {
    const int send_owner = (i - s + 1 + w) % w;
    const int recv_owner = (i - s + w) % w;
    for (int j = 0; j < cpr; ++j) {
      SendRecv(p, next, chunk(send_owner + j * w), prev,
               chunk(recv_owner + j * w));
    }
  }
}

/// Two-phase ring all-reduce of kData over `ring`. cpr == 1 is the classic
/// ring; cpr > 1 the pipelined variant after fbcollective's
/// allreduce_ring_chunked, whose smaller chunks give it a different (but
/// equally deterministic) per-element order.
void RingAllReduce(Program& p, const std::vector<int>& ring, int i, int64_t n,
                   int cpr) {
  if (ring.size() == 1) return;
  const RingChunks chunks{n, static_cast<int64_t>(ring.size()) * cpr};
  RingReduceScatter(p, ring, i, chunks, cpr, kData, /*in_place=*/true);
  RingAllGather(p, ring, i, chunks, cpr);
}

/// Tree: recursive-doubling reduction to rank 0 (receiver's own value on
/// the left), then a star broadcast — NCCL 2.4's tree mode, cited by the
/// paper [22].
void TreeAllReduce(Program& p, int me, int w, int64_t n) {
  const Span data{kData, 0, n};
  for (int span = 1; span < w; span *= 2) {
    if (me % (2 * span) == span) {
      Send(p, me - span, data);
      break;  // contribution handed off; wait for the broadcast
    }
    if (me % (2 * span) == 0 && me + span < w) {
      const Span tmp = Scratch(p, kScratch0, 0, n, n);
      Recv(p, me + span, tmp);
      Combine(p, data, tmp);
    }
  }
  BroadcastFrom(p, me, 0, Ranks(1, w), data);
}

/// Recursive halving-doubling (the MPICH/Rabenseifner pattern): fold any
/// ranks beyond the leading power of two into their even neighbour,
/// recursive-halving reduce-scatter (partner distance and owned segment
/// both halve each round, keeper's own value on the left),
/// recursive-doubling all-gather (the exact reverse), then fan the result
/// back out to the folded ranks. Every rank replays the segment
/// bookkeeping of all participants and emits only its own exchanges.
void HalvingDoublingAllReduce(Program& p, int me, int w, int64_t n) {
  int pof2 = 1;
  while (pof2 * 2 <= w) pof2 *= 2;
  const int rem = w - pof2;
  const Span data{kData, 0, n};
  if (me < 2 * rem) {
    if (me % 2 == 1) {
      Send(p, me - 1, data);
      Recv(p, me - 1, data);  // unfold
      return;
    }
    const Span tmp = Scratch(p, kScratch0, 0, n, n);
    Recv(p, me + 1, tmp);
    Combine(p, data, tmp);
  }
  const int self = me < 2 * rem ? me / 2 : me - rem;
  auto rank_of = [&](int q) { return q < rem ? 2 * q : q + rem; };
  std::vector<int64_t> beg(static_cast<size_t>(pof2), 0);
  std::vector<int64_t> end(static_cast<size_t>(pof2), n);
  auto segment = [&](int q) {
    return Span{kData, beg[static_cast<size_t>(q)],
                end[static_cast<size_t>(q)] - beg[static_cast<size_t>(q)]};
  };

  for (int mask = pof2 / 2; mask >= 1; mask /= 2) {
    for (int a = 0; a < pof2; ++a) {
      const int b = a ^ mask;
      if (b < a) continue;
      const int64_t lo = beg[static_cast<size_t>(a)];
      const int64_t hi = end[static_cast<size_t>(a)];
      const int64_t mid = lo + (hi - lo) / 2;
      if (a == self || b == self) {
        const bool low = a == self;  // the low member keeps [lo, mid)
        const Span keep{kData, low ? lo : mid, low ? mid - lo : hi - mid};
        const Span give{kData, low ? mid : lo, low ? hi - mid : mid - lo};
        const Span tmp = Scratch(p, kScratch0, keep.offset, keep.len, n);
        const int partner = rank_of(low ? b : a);
        SendRecv(p, partner, give, partner, tmp);
        Combine(p, keep, tmp);
      }
      end[static_cast<size_t>(a)] = mid;
      beg[static_cast<size_t>(b)] = mid;
    }
  }
  for (int mask = 1; mask < pof2; mask *= 2) {
    for (int a = 0; a < pof2; ++a) {
      const int b = a ^ mask;
      if (b < a) continue;
      if (a == self || b == self) {
        const int other = a == self ? b : a;
        SendRecv(p, rank_of(other), segment(self), rank_of(other),
                 segment(other));
      }
      const int64_t nb = std::min(beg[static_cast<size_t>(a)],
                                  beg[static_cast<size_t>(b)]);
      const int64_t ne = std::max(end[static_cast<size_t>(a)],
                                  end[static_cast<size_t>(b)]);
      beg[static_cast<size_t>(a)] = beg[static_cast<size_t>(b)] = nb;
      end[static_cast<size_t>(a)] = end[static_cast<size_t>(b)] = ne;
    }
  }
  if (me < 2 * rem) Send(p, me + 1, data);  // unfold
}

/// Hierarchical two-level (ranks host-major, `rpn` per node): each node
/// reduces into its leader in ascending rank order (NVLink-tier traffic),
/// leaders run a classic ring across nodes (the only NIC-tier traffic:
/// 2*(nodes-1)/nodes of the bytes instead of 2*(world-1)/world), then each
/// leader broadcasts inside its node. A single-node world degenerates to
/// exactly the kNaive combine order.
void HierarchicalAllReduce(Program& p, int me, int w, int64_t n, int rpn) {
  if (rpn <= 0) rpn = sim::Topology().gpus_per_host();
  const int leader = me / rpn * rpn;
  const std::vector<int> members = Ranks(leader + 1, std::min(w, leader + rpn));
  ReduceTo(p, me, leader, members, n);
  if (me == leader) {
    std::vector<int> leaders;
    for (int l = 0; l < w; l += rpn) leaders.push_back(l);
    RingAllReduce(p, leaders, leader / rpn, n, /*cpr=*/1);
  }
  BroadcastFrom(p, me, leader, members, Span{kData, 0, n});
}

/// Half precision: rank 0 gathers every contribution, accumulates each
/// element in fp32 over ranks 0..w-1 ascending (as GPU tensor cores do),
/// stores back as half and broadcasts. Used by the gradient compression
/// extension (paper §6.2.3) whatever the group's algorithm.
void Fp16AllReduce(Program& p, int me, int w, int64_t n) {
  const Span data{kData, 0, n};
  if (me == 0) {
    for (int q = 1; q < w; ++q) {
      Recv(p, q, Scratch(p, kScratch0, (q - 1) * n, n, (w - 1) * n));
    }
    Add(p, Step::kFp16Sum, data, Span{kScratch0, 0, (w - 1) * n});
  } else {
    Send(p, 0, data);
  }
  BroadcastFrom(p, me, 0, Ranks(1, w), data);
}

void AllReduceProgram(Program& p, const ProgramSpec& spec, int me) {
  const int w = spec.world;
  const int64_t n = spec.numel;
  if (w == 1 || n == 0) return;
  if (spec.dtype == DType::kFloat16) {
    Fp16AllReduce(p, me, w, n);
    return;
  }
  const Algorithm algorithm = ResolveAlgorithm(
      spec.algorithm, static_cast<size_t>(n) * ItemSize(spec.dtype), w,
      spec.ranks_per_node);
  switch (algorithm) {
    case Algorithm::kNaive:
      ReduceTo(p, me, 0, Ranks(1, w), n);
      BroadcastFrom(p, me, 0, Ranks(1, w), Span{kData, 0, n});
      return;
    case Algorithm::kRing:
      RingAllReduce(p, Ranks(0, w), me, n, /*cpr=*/1);
      return;
    case Algorithm::kRingChunked:
      RingAllReduce(p, Ranks(0, w), me, n, sim::kRingChunksPerRank);
      return;
    case Algorithm::kTree:
      TreeAllReduce(p, me, w, n);
      return;
    case Algorithm::kHalvingDoubling:
      HalvingDoublingAllReduce(p, me, w, n);
      return;
    case Algorithm::kHierarchical:
      HierarchicalAllReduce(p, me, w, n, spec.ranks_per_node);
      return;
    case Algorithm::kAuto:
      break;
  }
  DDPKIT_CHECK(false) << "unresolved algorithm";
}

}  // namespace

Program BuildProgram(const ProgramSpec& spec, int me) {
  Program p;
  const int w = spec.world;
  const int root = spec.root;
  const int64_t n = spec.numel;
  switch (spec.kind) {
    case Collective::kAllReduce:
      AllReduceProgram(p, spec, me);
      break;
    case Collective::kBroadcast:
      if (n > 0) BroadcastFrom(p, me, root, Ranks(0, w, root), {kData, 0, n});
      break;
    case Collective::kReduce:
      if (n > 0) ReduceTo(p, me, root, Ranks(0, w, root), n);
      break;
    case Collective::kReduceScatter:
      // Chunk c of the world * n input is the ring's chunk c: this is the
      // ring all-reduce's first phase, installed into the output.
      if (n > 0) {
        RingReduceScatter(p, Ranks(0, w), me, RingChunks{w * n, w}, 1, kInput,
                          /*in_place=*/false);
      }
      break;
    case Collective::kAllGather:
      Copy(p, Span{kData, me * n, n}, Span{kInput, 0, n});
      if (n > 0) RingAllGather(p, Ranks(0, w), me, RingChunks{w * n, w}, 1);
      break;
    case Collective::kGather:
      if (me != root) {
        Send(p, root, Span{kInput, 0, n});
        break;
      }
      Copy(p, Span{kData, me * n, n}, Span{kInput, 0, n});
      for (int q : Ranks(0, w, root)) Recv(p, q, Span{kData, q * n, n});
      break;
    case Collective::kBarrier: {
      // A one-byte kData token gathered to rank 0 and released from it.
      const Span token{kData, 0, 1};
      if (me == 0) {
        for (int q = 1; q < w; ++q) Recv(p, q, token);
      } else {
        Send(p, 0, token);
      }
      BroadcastFrom(p, me, 0, Ranks(1, w), token);
      break;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Local steps and the in-memory executor.
// ---------------------------------------------------------------------------

ProgramBuffers::ProgramBuffers(const Program& program, size_t elem_size,
                               void* data, const void* input)
    : elem_size_(elem_size) {
  base_[kData] = static_cast<uint8_t*>(data);
  base_[kInput] = static_cast<uint8_t*>(const_cast<void*>(input));
  for (int i = 0; i < 2; ++i) {
    scratch_[i].reset(
        new uint8_t[static_cast<size_t>(program.scratch[i]) * elem_size]);
    base_[kScratch0 + i] = scratch_[i].get();
  }
}

namespace {

template <typename T>
T CombineOne(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::kSum:
      return static_cast<T>(a + b);
    case ReduceOp::kMax:
      return a > b ? a : b;
    case ReduceOp::kBor:
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(a | b);
      } else {
        // Logical-or semantics for float bitmaps.
        return (a != 0 || b != 0) ? T{1} : T{0};
      }
  }
  return a;
}

/// dst[0..len) = dst (+) src lanewise — the one combine loop every program
/// funnels through. Float/double sum and max dispatch into the SIMD layer
/// (bit-exact at every vector width, see common/vec.h); the remaining
/// (integer, kBor) combinations stay scalar.
template <typename T>
void CombineSpan(ReduceOp op, T* dst, const T* src, int64_t len) {
  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    if (op == ReduceOp::kSum) {
      vec::AccumulateAdd(dst, src, len);
      return;
    }
    if (op == ReduceOp::kMax) {
      vec::AccumulateMax(dst, src, len);
      return;
    }
  }
  // ddplint: allow(raw-elementwise-loop) integer / kBor fallback; the vec
  // layer covers the float and double sum/max hot paths above
  for (int64_t i = 0; i < len; ++i) dst[i] = CombineOne(op, dst[i], src[i]);
}

template <typename T>
void CombineSpans(ReduceOp op, uint8_t* out, const uint8_t* in, int64_t len) {
  T* dst = reinterpret_cast<T*>(out);
  const T* src = reinterpret_cast<const T*>(in);
  ParallelFor(0, len, kParallelGrain, [&](int64_t b, int64_t e) {
    CombineSpan(op, dst + b, src + b, e - b);
  });
}

/// out[0..len) = out (+) in for `len` elements of `dtype`.
void CombineBytes(DType dtype, ReduceOp op, uint8_t* out, const uint8_t* in,
                  int64_t len) {
  switch (dtype) {
    case DType::kFloat32:
      return CombineSpans<float>(op, out, in, len);
    case DType::kFloat64:
      return CombineSpans<double>(op, out, in, len);
    case DType::kInt64:
      return CombineSpans<int64_t>(op, out, in, len);
    case DType::kUInt8:
      return CombineSpans<uint8_t>(op, out, in, len);
    default:
      DDPKIT_CHECK(false) << "no combine for " << DTypeName(dtype);
  }
}

void CopyBytes(uint8_t* dst, const uint8_t* src, size_t bytes) {
  ParallelFor(0, static_cast<int64_t>(bytes), 4 * kParallelGrain,
              [&](int64_t b, int64_t e) {
    std::memcpy(dst + b, src + b, static_cast<size_t>(e - b));
  });
}

}  // namespace

void RunLocalStep(const Step& step, DType dtype, ReduceOp op,
                  const ProgramBuffers& bufs) {
  uint8_t* out = bufs.at(step.out);
  const uint8_t* in = bufs.at(step.in);
  const int64_t n = step.out.len;
  switch (step.kind) {
    case Step::kCopy:
      CopyBytes(out, in, bufs.bytes(step.out));
      return;
    case Step::kCombine:
      CombineBytes(dtype, op, out, in, n);
      return;
    case Step::kFp16Sum: {
      auto* dst = reinterpret_cast<uint16_t*>(out);
      const auto* src = reinterpret_cast<const uint16_t*>(in);
      const int64_t blocks = n > 0 ? step.in.len / n : 0;
      ParallelFor(0, n, GrainFromCost(blocks + 1), [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          float v = 0.0f;
          // ddplint: allow(raw-elementwise-loop) half bits convert through
          // fp32 per element; no packed fp16 arithmetic in the vec layer
          v += HalfBitsToFloat32(dst[i]);
          for (int64_t k = 0; k < blocks; ++k) {
            v += HalfBitsToFloat32(src[k * n + i]);
          }
          // ddplint: allow(raw-elementwise-loop) see above
          dst[i] = Float32ToHalfBits(v);
        }
      });
      return;
    }
    default:
      DDPKIT_CHECK(false) << "not a local step";
  }
}

namespace {

/// RunInMemory over raw base pointers.
void RunPrograms(const ProgramSpec& spec, ReduceOp op,
                 const std::vector<void*>& data,
                 const std::vector<const void*>& input) {
  const int world = spec.world;
  DDPKIT_CHECK_EQ(data.size(), static_cast<size_t>(world));
  DDPKIT_CHECK_EQ(input.size(), static_cast<size_t>(world));
  std::vector<Program> programs;
  std::vector<ProgramBuffers> bufs;
  programs.reserve(static_cast<size_t>(world));
  bufs.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    programs.push_back(BuildProgram(spec, r));
    bufs.emplace_back(programs.back(), ItemSize(spec.dtype),
                      data[static_cast<size_t>(r)],
                      input[static_cast<size_t>(r)]);
  }

  // Per rank: program counter, and which halves of its current message
  // step still wait for a partner. A message moves only when both ends sit
  // at their matching steps, straight from the sender's span into the
  // receiver's (one copy, like the wire), so no span is overwritten while
  // a peer still has to read it. A receive whose next step only combines
  // the received span into another is fused: the combine reads the
  // sender's span directly (same operands, same order), and the scratch
  // stays untouched.
  struct Cursor {
    size_t pc = 0;
    bool posted = false;
    bool send = false;
    bool recv = false;
    bool fused = false;
  };
  std::vector<Cursor> cur(static_cast<size_t>(world));
  auto current = [&](int r) -> const Step* {
    const auto& steps = programs[static_cast<size_t>(r)].steps;
    const size_t pc = cur[static_cast<size_t>(r)].pc;
    return pc < steps.size() ? &steps[pc] : nullptr;
  };
  auto waiting = [&](int q, bool send, int peer) {
    const Step* s = current(q);
    const Cursor& c = cur[static_cast<size_t>(q)];
    return s != nullptr && c.posted &&
           (send ? c.send && s->send_peer == peer
                 : c.recv && s->recv_peer == peer);
  };
  auto overlap = [](const Span& a, const Span& b) {
    return a.buf == b.buf && a.offset < b.offset + b.len &&
           b.offset < a.offset + a.len;
  };
  auto deliver = [&](int from, int to) {
    const Span& src_span = current(from)->in;
    const Step& recv = *current(to);
    DDPKIT_CHECK_EQ(src_span.len, recv.out.len) << "message size mismatch";
    const uint8_t* src = bufs[static_cast<size_t>(from)].at(src_span);
    const ProgramBuffers& dst = bufs[static_cast<size_t>(to)];
    Cursor& c = cur[static_cast<size_t>(to)];
    const auto& steps = programs[static_cast<size_t>(to)].steps;
    const Step* next = c.pc + 1 < steps.size() ? &steps[c.pc + 1] : nullptr;
    c.fused = next != nullptr && next->kind == Step::kCombine &&
              next->in.buf == recv.out.buf &&
              next->in.offset == recv.out.offset &&
              next->in.len == recv.out.len && !overlap(next->out, recv.in);
    if (c.fused) {
      CombineBytes(spec.dtype, op, dst.at(next->out), src, next->out.len);
    } else {
      CopyBytes(dst.at(recv.out), src, dst.bytes(recv.out));
    }
    cur[static_cast<size_t>(from)].send = false;
    c.recv = false;
  };

  for (bool done = false; !done;) {
    done = true;
    bool progressed = false;
    for (int r = 0; r < world; ++r) {
      Cursor& c = cur[static_cast<size_t>(r)];
      for (const Step* s = current(r); s != nullptr; s = current(r)) {
        if (s->local()) {
          RunLocalStep(*s, spec.dtype, op, bufs[static_cast<size_t>(r)]);
        } else {
          if (!c.posted) {
            c.posted = true;
            c.send = s->kind != Step::kRecv;
            c.recv = s->kind != Step::kSend;
          }
          if (c.recv && waiting(s->recv_peer, /*send=*/true, r)) {
            deliver(s->recv_peer, r);
            progressed = true;
          }
          if (c.send && waiting(s->send_peer, /*send=*/false, r)) {
            deliver(r, s->send_peer);
            progressed = true;
          }
          if (c.send || c.recv) break;  // blocked on a partner
          c.posted = false;
          if (c.fused) ++c.pc;  // its combine already ran
          c.fused = false;
        }
        ++c.pc;
        progressed = true;
      }
      if (current(r) != nullptr) done = false;
    }
    DDPKIT_CHECK(done || progressed) << "step programs deadlocked";
  }
}

}  // namespace

void RunInMemory(const ProgramSpec& spec, ReduceOp op,
                 const std::vector<Tensor>& data,
                 const std::vector<Tensor>& input) {
  auto base = [](const std::vector<Tensor>& tensors, size_t r) -> uint8_t* {
    return r < tensors.size() && tensors[r].defined()
               ? const_cast<Tensor&>(tensors[r]).data<uint8_t>()
               : nullptr;
  };
  std::vector<void*> data_ptrs;
  std::vector<const void*> input_ptrs;
  for (size_t r = 0; r < static_cast<size_t>(spec.world); ++r) {
    data_ptrs.push_back(base(data, r));
    input_ptrs.push_back(base(input, r));
  }
  RunPrograms(spec, op, data_ptrs, input_ptrs);
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

namespace {

/// The backends' issue-time check, as a CHECK for direct callers; also
/// requires one numel and dtype across ranks. Returns the spec skeleton.
ProgramSpec CheckAll(Collective kind, ReduceOp op, int root,
                     const std::vector<Tensor>& tensors,
                     const std::vector<Tensor>& outputs) {
  DDPKIT_CHECK(!tensors.empty());
  const int world = static_cast<int>(tensors.size());
  for (size_t r = 0; r < tensors.size(); ++r) {
    const Tensor output = r < outputs.size() ? outputs[r] : Tensor();
    DDPKIT_CHECK_OK(CheckCollective(kind, op, root, static_cast<int>(r), world,
                                    tensors[r], output));
    DDPKIT_CHECK_EQ(tensors[r].numel(), tensors[0].numel());
    DDPKIT_CHECK(tensors[r].dtype() == tensors[0].dtype());
  }
  ProgramSpec spec;
  spec.kind = kind;
  spec.dtype = tensors[0].dtype();
  spec.world = world;
  spec.root = root;
  spec.numel = tensors[0].numel();
  return spec;
}

template <typename T>
constexpr DType DTypeOf() {
  if constexpr (std::is_same_v<T, float>) return DType::kFloat32;
  if constexpr (std::is_same_v<T, double>) return DType::kFloat64;
  if constexpr (std::is_same_v<T, int64_t>) return DType::kInt64;
  return DType::kUInt8;
}

}  // namespace

template <typename T>
void RunAllReduceRaw(Algorithm algorithm, ReduceOp op,
                     const std::vector<T*>& bufs, int64_t n,
                     int ranks_per_node) {
  DDPKIT_CHECK(!bufs.empty());
  DDPKIT_CHECK(n >= 0);
  ProgramSpec spec;
  spec.dtype = DTypeOf<T>();
  spec.world = static_cast<int>(bufs.size());
  spec.numel = n;
  spec.algorithm = algorithm;
  spec.ranks_per_node = ranks_per_node;
  RunPrograms(spec, op, std::vector<void*>(bufs.begin(), bufs.end()),
              std::vector<const void*>(bufs.size(), nullptr));
}

template void RunAllReduceRaw<float>(Algorithm, ReduceOp,
                                     const std::vector<float*>&, int64_t,
                                     int);
template void RunAllReduceRaw<double>(Algorithm, ReduceOp,
                                      const std::vector<double*>&, int64_t,
                                      int);
template void RunAllReduceRaw<int64_t>(Algorithm, ReduceOp,
                                       const std::vector<int64_t*>&, int64_t,
                                       int);
template void RunAllReduceRaw<uint8_t>(Algorithm, ReduceOp,
                                       const std::vector<uint8_t*>&, int64_t,
                                       int);

void RunAllReduce(Algorithm algorithm, ReduceOp op,
                  const std::vector<Tensor>& tensors, int ranks_per_node) {
  ProgramSpec spec = CheckAll(Collective::kAllReduce, op, 0, tensors, {});
  spec.algorithm = algorithm;
  spec.ranks_per_node = ranks_per_node;
  RunInMemory(spec, op, tensors, {});
}

void RunBroadcast(const std::vector<Tensor>& tensors, int root) {
  RunInMemory(CheckAll(Collective::kBroadcast, ReduceOp::kSum, root, tensors,
                       {}),
              ReduceOp::kSum, tensors, {});
}

void RunAllGather(const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& outputs) {
  RunInMemory(CheckAll(Collective::kAllGather, ReduceOp::kSum, 0, inputs,
                       outputs),
              ReduceOp::kSum, outputs, inputs);
}

void RunReduce(ReduceOp op, const std::vector<Tensor>& tensors, int root) {
  RunInMemory(CheckAll(Collective::kReduce, op, root, tensors, {}), op,
              tensors, {});
}

void RunReduceScatter(ReduceOp op, const std::vector<Tensor>& inputs,
                      const std::vector<Tensor>& outputs) {
  ProgramSpec spec =
      CheckAll(Collective::kReduceScatter, op, 0, inputs, outputs);
  spec.numel = outputs[0].numel();
  RunInMemory(spec, op, outputs, inputs);
}

void RunGather(const std::vector<Tensor>& inputs, Tensor output_root,
               int root) {
  std::vector<Tensor> outputs(inputs.size());
  if (root >= 0 && static_cast<size_t>(root) < outputs.size()) {
    outputs[static_cast<size_t>(root)] = output_root;
  }
  RunInMemory(CheckAll(Collective::kGather, ReduceOp::kSum, root, inputs,
                       outputs),
              ReduceOp::kSum, outputs, inputs);
}

}  // namespace ddpkit::comm
