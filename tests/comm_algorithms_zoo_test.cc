#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "comm/algorithms.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "sim/collective_algo.h"
#include "sim/topology.h"

namespace ddpkit::comm {
namespace {

/// Restores the default pool size when a test exits.
class PoolSizeGuard {
 public:
  ~PoolSizeGuard() { ThreadPool::SetNumThreads(previous_); }

 private:
  int previous_ = ThreadPool::Global().num_threads();
};

template <typename T>
std::vector<std::vector<T>> MakeBuffers(int world, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<T>> bufs(static_cast<size_t>(world));
  for (auto& b : bufs) {
    b.resize(static_cast<size_t>(n));
    for (auto& x : b) x = static_cast<T>(rng.Uniform(-2.0, 2.0));
  }
  return bufs;
}

template <typename T>
std::vector<T*> Pointers(std::vector<std::vector<T>>* bufs) {
  std::vector<T*> ps;
  for (auto& b : *bufs) ps.push_back(b.data());
  return ps;
}

/// Runs `algorithm` on a fresh copy of `inputs` and returns all ranks'
/// output buffers.
template <typename T>
std::vector<std::vector<T>> RunZoo(Algorithm algorithm, ReduceOp op,
                                const std::vector<std::vector<T>>& inputs,
                                int64_t n, int ranks_per_node = 0) {
  std::vector<std::vector<T>> bufs = inputs;
  std::vector<T*> ps = Pointers(&bufs);
  RunAllReduceRaw<T>(algorithm, op, ps, n, ranks_per_node);
  return bufs;
}

/// Bitwise equality of two buffers: sizes first, then memcmp, which must
/// not receive the null data() an empty buffer may have.
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
void ExpectAllRanksBitIdentical(const std::vector<std::vector<T>>& out) {
  for (size_t r = 1; r < out.size(); ++r) {
    EXPECT_TRUE(SameBytes(out[0], out[r]))
        << "rank " << r << " differs from rank 0";
  }
}

// The zoo variants under property test. kAuto is included so the selector's
// resolution path is swept too; kNaive is the reference.
const Algorithm kZoo[] = {Algorithm::kRing, Algorithm::kRingChunked,
                          Algorithm::kHalvingDoubling,
                          Algorithm::kHierarchical, Algorithm::kAuto};

class ZooAlgorithmTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, int, int64_t>> {};

// Float sum: every variant must agree with kNaive within accumulation-order
// rounding, and all ranks must hold bit-identical buffers.
TEST_P(ZooAlgorithmTest, FloatSumMatchesNaive) {
  auto [algorithm, world, n] = GetParam();
  const auto inputs = MakeBuffers<float>(
      world, n, 0xf00 + static_cast<uint64_t>(world * 10000 + n));
  const auto naive = RunZoo(Algorithm::kNaive, ReduceOp::kSum, inputs, n);
  const auto got = RunZoo(algorithm, ReduceOp::kSum, inputs, n);
  ExpectAllRanksBitIdentical(got);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(naive[0][static_cast<size_t>(i)],
                got[0][static_cast<size_t>(i)], 1e-4 * world)
        << "element " << i;
  }
}

TEST_P(ZooAlgorithmTest, DoubleSumMatchesNaive) {
  auto [algorithm, world, n] = GetParam();
  const auto inputs = MakeBuffers<double>(
      world, n, 0xd00 + static_cast<uint64_t>(world * 10000 + n));
  const auto naive = RunZoo(Algorithm::kNaive, ReduceOp::kSum, inputs, n);
  const auto got = RunZoo(algorithm, ReduceOp::kSum, inputs, n);
  ExpectAllRanksBitIdentical(got);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(naive[0][static_cast<size_t>(i)],
                got[0][static_cast<size_t>(i)], 1e-12 * world)
        << "element " << i;
  }
}

// Max is order-insensitive over ordinary values, so every variant must be
// bit-exact against kNaive, not merely close.
TEST_P(ZooAlgorithmTest, FloatMaxBitExactVsNaive) {
  auto [algorithm, world, n] = GetParam();
  const auto inputs = MakeBuffers<float>(
      world, n, 0xa0 + static_cast<uint64_t>(world * 10000 + n));
  const auto naive = RunZoo(Algorithm::kNaive, ReduceOp::kMax, inputs, n);
  const auto got = RunZoo(algorithm, ReduceOp::kMax, inputs, n);
  ExpectAllRanksBitIdentical(got);
  EXPECT_TRUE(SameBytes(naive[0], got[0]));
}

// Integer sums are associative, so all variants must agree exactly.
TEST_P(ZooAlgorithmTest, Int64SumExact) {
  auto [algorithm, world, n] = GetParam();
  std::vector<std::vector<int64_t>> inputs(static_cast<size_t>(world));
  Rng rng(0x17 + static_cast<uint64_t>(world * 10000 + n));
  for (auto& b : inputs) {
    b.resize(static_cast<size_t>(n));
    for (auto& x : b) {
      x = static_cast<int64_t>(rng.UniformInt(2000)) - 1000;
    }
  }
  const auto naive = RunZoo(Algorithm::kNaive, ReduceOp::kSum, inputs, n);
  const auto got = RunZoo(algorithm, ReduceOp::kSum, inputs, n);
  ExpectAllRanksBitIdentical(got);
  EXPECT_EQ(naive[0], got[0]);
}

// The combine-order contract: each variant's result is a pure function of
// (inputs, algorithm) — never of the intra-op pool size. Swept at 1, 2 and
// 8 threads and compared bitwise.
TEST_P(ZooAlgorithmTest, BitExactAcrossThreadCounts) {
  auto [algorithm, world, n] = GetParam();
  PoolSizeGuard guard;
  const auto inputs = MakeBuffers<float>(
      world, n, 0xbe + static_cast<uint64_t>(world * 10000 + n));
  ThreadPool::SetNumThreads(1);
  const auto ref = RunZoo(algorithm, ReduceOp::kSum, inputs, n);
  for (const int threads : {2, 8}) {
    ThreadPool::SetNumThreads(threads);
    const auto got = RunZoo(algorithm, ReduceOp::kSum, inputs, n);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectAllRanksBitIdentical(got);
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_TRUE(SameBytes(ref[r], got[r]))
          << "rank " << r << " differs from 1-thread run";
    }
  }
}

std::string ZooParamName(
    const ::testing::TestParamInfo<std::tuple<Algorithm, int, int64_t>>&
        info) {
  return std::string(AlgorithmName(std::get<0>(info.param))) + "_w" +
         std::to_string(std::get<1>(info.param)) + "_n" +
         std::to_string(std::get<2>(info.param));
}

// Odd worlds (3, 5, 7) stress non-power-of-two halving-doubling folding and
// non-divisible ring chunking; n = 0 exercises the zero-length contract and
// n = 4097 a many-chunk split that never divides evenly.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ZooAlgorithmTest,
    ::testing::Combine(
        ::testing::ValuesIn(kZoo),
        ::testing::Values(2, 3, 4, 5, 7, 8),
        ::testing::Values(int64_t{0}, int64_t{1}, int64_t{5}, int64_t{63},
                          int64_t{1000}, int64_t{4097})),
    ZooParamName);

// Hierarchical must hold for every node-shape, including ranks_per_node
// values that do not divide the world and the two degenerate shapes
// (everyone on one node / one rank per node).
TEST(HierarchicalShapeTest, AllNodeShapesMatchNaive) {
  const int world = 8;
  const int64_t n = 1000;
  const auto inputs = MakeBuffers<float>(world, n, 0x8e11);
  const auto naive = RunZoo(Algorithm::kNaive, ReduceOp::kSum, inputs, n);
  for (const int rpn : {1, 2, 3, 5, 8, 16}) {
    const auto got =
        RunZoo(Algorithm::kHierarchical, ReduceOp::kSum, inputs, n, rpn);
    SCOPED_TRACE("ranks_per_node=" + std::to_string(rpn));
    ExpectAllRanksBitIdentical(got);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(naive[0][static_cast<size_t>(i)],
                  got[0][static_cast<size_t>(i)], 1e-4 * world);
    }
  }
}

// On a single host the hierarchical algorithm degenerates to exactly the
// naive combine order, so the match is bitwise, not approximate.
TEST(HierarchicalShapeTest, SingleNodeIsBitExactNaive) {
  const int world = 7;
  const int64_t n = 4097;
  const auto inputs = MakeBuffers<float>(world, n, 0x51);
  const auto naive = RunZoo(Algorithm::kNaive, ReduceOp::kSum, inputs, n);
  const auto got =
      RunZoo(Algorithm::kHierarchical, ReduceOp::kSum, inputs, n, world);
  EXPECT_TRUE(SameBytes(naive[0], got[0]));
}

// Chunked ring with one chunk per rank is the classic ring: bitwise equal.
TEST(RingChunkedTest, SingleChunkPerRankIsClassicRing) {
  // RunAllReduce(kRing) routes through RingAllReduce with chunks_per_rank=1;
  // this pins that the refactor kept the historical ring order.
  const int world = 5;
  const int64_t n = 4097;
  const auto inputs = MakeBuffers<float>(world, n, 0x4411);
  const auto ring = RunZoo(Algorithm::kRing, ReduceOp::kSum, inputs, n);
  ExpectAllRanksBitIdentical(ring);
  // And the chunked variant differs only by rounding, never by more.
  const auto chunked = RunZoo(Algorithm::kRingChunked, ReduceOp::kSum, inputs, n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ring[0][static_cast<size_t>(i)],
                chunked[0][static_cast<size_t>(i)], 1e-4 * world);
  }
}

// The SIMD dispatch level must never change collective results: sweep the
// zoo at every level the host supports and require bitwise equality.
TEST(ZooSimdTest, ResultsBitExactAcrossSimdLevels) {
  const int world = 5;
  const int64_t n = 4097;
  const auto inputs = MakeBuffers<float>(world, n, 0x51d);
  const vec::Level prev = vec::ActiveLevel();
  for (const Algorithm algo : kZoo) {
    vec::SetLevelForTesting(vec::Level::kScalar);
    const auto ref = RunZoo(algo, ReduceOp::kSum, inputs, n);
    for (const vec::Level level :
         {vec::Level::kAvx2, vec::Level::kAvx512}) {
      if (vec::DetectedLevel() < level) continue;
      vec::SetLevelForTesting(level);
      const auto got = RunZoo(algo, ReduceOp::kSum, inputs, n);
      SCOPED_TRACE(std::string(AlgorithmName(algo)) + " level=" +
                   vec::LevelName(level));
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_TRUE(SameBytes(ref[r], got[r]));
      }
    }
  }
  vec::SetLevelForTesting(prev);
}

// The auto-selector's dispatch table, pinned: tiny worlds -> naive, small
// messages -> halving-doubling, multi-host -> hierarchical, else chunked
// ring.
TEST(AutoSelectorTest, DispatchTable) {
  using sim::CollectiveAlgorithm;
  sim::Topology single;  // 8 GPUs on one host by default
  EXPECT_EQ(CollectiveAlgorithm::kNaive,
            sim::SelectAllReduceAlgorithm(1 << 20, 2, single));
  EXPECT_EQ(CollectiveAlgorithm::kHalvingDoubling,
            sim::SelectAllReduceAlgorithm(sim::kSmallAllReduceBytes - 1, 8,
                                          single));
  EXPECT_EQ(CollectiveAlgorithm::kRingChunked,
            sim::SelectAllReduceAlgorithm(sim::kSmallAllReduceBytes, 8,
                                          single));
  EXPECT_EQ(CollectiveAlgorithm::kHierarchical,
            sim::SelectAllReduceAlgorithm(25 << 20, 16, single));
  // Resolution is idempotent for concrete algorithms.
  EXPECT_EQ(CollectiveAlgorithm::kRing,
            sim::ResolveAllReduceAlgorithm(CollectiveAlgorithm::kRing,
                                           25 << 20, 16, single));
}

}  // namespace
}  // namespace ddpkit::comm
