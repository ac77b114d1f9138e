#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "autograd/engine.h"
#include "comm/algorithms.h"
#include "comm/sim_world.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"
#include "tests/vec_levels.h"

namespace ddpkit {
namespace {

/// Restores the default pool size when a test exits, so thread-count
/// changes never leak into other tests.
class PoolSizeGuard {
 public:
  ~PoolSizeGuard() { ThreadPool::SetNumThreads(previous_); }

 private:
  int previous_ = ThreadPool::Global().num_threads();
};

std::vector<uint8_t> TensorBytes(const Tensor& t) {
  std::vector<uint8_t> out(t.nbytes());
  std::memcpy(out.data(), t.data<uint8_t>(), t.nbytes());
  return out;
}

// ---- ParallelFor basics -------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  PoolSizeGuard guard;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetNumThreads(threads);
    constexpr int64_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(0, kN, /*grain=*/64, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndReversedRangesAreNoops) {
  std::atomic<int> calls{0};
  auto body = [&](int64_t, int64_t) { calls.fetch_add(1); };
  ParallelFor(0, 0, 8, body);
  ParallelFor(5, 5, 8, body);
  ParallelFor(10, 3, 8, body);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleElementRange) {
  int64_t seen_b = -1, seen_e = -1;
  ParallelFor(7, 8, 1, [&](int64_t b, int64_t e) {
    seen_b = b;
    seen_e = e;
  });
  EXPECT_EQ(seen_b, 7);
  EXPECT_EQ(seen_e, 8);
}

TEST(ParallelForTest, RangeAtOrBelowGrainRunsAsOneCall) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(8);
  std::atomic<int> calls{0};
  ParallelFor(0, 100, /*grain=*/100, [&](int64_t b, int64_t e) {
    calls.fetch_add(1);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, SubrangesAreGrainAlignedTiles) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(4);
  constexpr int64_t kBegin = 3, kEnd = 103, kGrain = 16;
  Mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(kBegin, kEnd, kGrain, [&](int64_t b, int64_t e) {
    MutexLock lock(&mu);
    ranges.emplace_back(b, e);
  });
  // Chunk boundaries depend only on the range and grain, never on which
  // thread claimed which chunk.
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ((b - kBegin) % kGrain, 0);
    EXPECT_EQ(e, std::min(kEnd, b + kGrain));
  }
  EXPECT_EQ(ranges.size(), 7u);  // ceil(100 / 16)
}

TEST(ParallelForTest, PoolIsReusedAcrossManyDispatches) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(4);
  constexpr int64_t kN = 4096;
  std::vector<int64_t> data(kN, 0);
  for (int round = 0; round < 200; ++round) {
    ParallelFor(0, kN, 64, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) ++data[i];
    });
  }
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(data[i], 200);
}

TEST(ParallelForTest, NestedCallsRunInlineAndComplete) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(4);
  constexpr int64_t kRows = 64, kCols = 256;
  std::vector<std::atomic<int>> hits(kRows * kCols);
  ParallelFor(0, kRows, 1, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      // A nested ParallelFor from inside a pool worker must not deadlock;
      // it runs serially on the same thread.
      ParallelFor(0, kCols, 16, [&](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) hits[r * kCols + c].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, ExceptionPropagatesToCallerAndPoolSurvives) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [&](int64_t b, int64_t) {
                    if (b == 500) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
  // The pool must stay usable after a body threw.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, SetNumThreadsResizesGlobalPool) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  ThreadPool::SetNumThreads(1);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1);
  ThreadPool::SetNumThreads(0);  // clamped
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1);
}

TEST(ParallelReduceTest, MatchesSerialSumAndIdentityOnEmpty) {
  PoolSizeGuard guard;
  ThreadPool::SetNumThreads(4);
  constexpr int64_t kN = 100'000;
  std::vector<double> values(kN);
  for (int64_t i = 0; i < kN; ++i) values[i] = 0.5 * static_cast<double>(i);
  const auto map = [&](int64_t b, int64_t e) {
    double s = 0.0;
    for (int64_t i = b; i < e; ++i) s += values[i];
    return s;
  };
  const auto combine = [](double x, double y) { return x + y; };
  const double parallel = ParallelReduce(0, kN, 1024, 0.0, map, combine);
  double serial = 0.0;
  for (int64_t i = 0; i < kN; ++i) serial += values[i];
  EXPECT_NEAR(parallel, serial, 1e-6 * serial);
  EXPECT_EQ(ParallelReduce(0, 0, 1024, -1.0, map, combine), -1.0);
}

// ---- Determinism across thread counts and SIMD levels ----------------------
//
// The runtime's contract: chunk partitioning depends only on problem size
// and grain, and every vec.h primitive rounds identically at every dispatch
// level, so every result below must be byte-identical whether the pool has
// 1, 2, or 8 threads and whichever level the host can run.

/// Runs `fn` under each available SIMD level × pool size and asserts every
/// invocation produces the bytes of the first (scalar, 1 thread).
template <typename Fn>
void ExpectBitExactAcrossThreadCounts(const char* what, Fn fn) {
  PoolSizeGuard pool_guard;
  testing::VecLevelGuard level_guard;
  std::vector<uint8_t> first;
  for (const vec::Level level : testing::AvailableLevels()) {
    vec::SetLevelForTesting(level);
    for (int threads : {1, 2, 8}) {
      ThreadPool::SetNumThreads(threads);
      std::vector<uint8_t> bytes = fn();
      if (level == vec::Level::kScalar && threads == 1) first = bytes;
      EXPECT_EQ(first, bytes) << what << ": scalar/1 thread vs "
                              << vec::LevelName(level) << "/" << threads
                              << " threads";
    }
  }
}

TEST(ParallelDeterminismTest, TensorOpsBitExact) {
  ExpectBitExactAcrossThreadCounts("matmul", [] {
    Rng rng(101);
    Tensor a = Tensor::Randn({257, 129}, &rng);
    Tensor b = Tensor::Randn({129, 193}, &rng);
    return TensorBytes(kernels::MatMul(a, b));
  });
  ExpectBitExactAcrossThreadCounts("matmul_trans_a", [] {
    Rng rng(102);
    Tensor a = Tensor::Randn({129, 257}, &rng);
    Tensor b = Tensor::Randn({129, 193}, &rng);
    return TensorBytes(kernels::MatMulTransA(a, b));
  });
  ExpectBitExactAcrossThreadCounts("matmul_trans_b", [] {
    Rng rng(103);
    Tensor a = Tensor::Randn({257, 129}, &rng);
    Tensor b = Tensor::Randn({193, 129}, &rng);
    return TensorBytes(kernels::MatMulTransB(a, b));
  });
  ExpectBitExactAcrossThreadCounts("elementwise", [] {
    Rng rng(104);
    Tensor a = Tensor::Randn({100'000}, &rng);
    Tensor b = Tensor::Randn({100'000}, &rng);
    Tensor out = kernels::Mul(kernels::Add(a, b), kernels::Gelu(a));
    kernels::Axpy(0.25, b, &out);
    return TensorBytes(out);
  });
  ExpectBitExactAcrossThreadCounts("sum_all", [] {
    Rng rng(105);
    Tensor a = Tensor::Randn({300'000}, &rng);
    return TensorBytes(kernels::SumAll(a));
  });
  ExpectBitExactAcrossThreadCounts("softmax_rows", [] {
    Rng rng(106);
    Tensor a = Tensor::Randn({300, 400}, &rng);
    Tensor sm = kernels::Softmax(a);
    Tensor lsm = kernels::LogSoftmax(a);
    std::vector<uint8_t> bytes = TensorBytes(sm);
    std::vector<uint8_t> more = TensorBytes(lsm);
    bytes.insert(bytes.end(), more.begin(), more.end());
    return bytes;
  });
  ExpectBitExactAcrossThreadCounts("sum_rows", [] {
    Rng rng(107);
    Tensor a = Tensor::Randn({300, 400}, &rng);
    return TensorBytes(kernels::SumRows(a));
  });
}

TEST(ParallelDeterminismTest, AllReduceBitExact) {
  for (comm::Algorithm algo :
       {comm::Algorithm::kNaive, comm::Algorithm::kRing,
        comm::Algorithm::kTree}) {
    ExpectBitExactAcrossThreadCounts(comm::AlgorithmName(algo), [algo] {
      Rng rng(200);
      std::vector<Tensor> tensors;
      for (int r = 0; r < 4; ++r) {
        tensors.push_back(Tensor::Randn({1 << 18}, &rng));
      }
      comm::RunAllReduce(algo, comm::ReduceOp::kSum, tensors);
      std::vector<uint8_t> bytes;
      for (const Tensor& t : tensors) {
        std::vector<uint8_t> b = TensorBytes(t);
        bytes.insert(bytes.end(), b.begin(), b.end());
      }
      return bytes;
    });
  }
}

TEST(ParallelDeterminismTest, DdpTrainingStepBitExact) {
  // End-to-end: 2-rank DDP forward/backward/optimizer step. Gradients flow
  // through parallel kernels, the bucket copy-in/copy-out, and the ring
  // all-reduce; the resulting parameters must be byte-identical for every
  // pool size and SIMD level.
  ExpectBitExactAcrossThreadCounts("ddp_step", [] {
    const int world = 2;
    const int64_t per_rank = 8;
    Rng data_rng(31);
    Tensor all_x = Tensor::Randn({per_rank * world, 64}, &data_rng);
    Tensor all_y = Tensor::Randn({per_rank * world, 16}, &data_rng);

    std::vector<std::vector<uint8_t>> rank_params(world);
    comm::SimWorld::Run(world, [&](comm::SimWorld::RankContext& ctx) {
      Rng rng(37);
      auto model = std::make_shared<nn::Mlp>(
          std::vector<int64_t>{64, 128, 16}, &rng);
      core::DistributedDataParallel ddp(model, ctx.process_group);
      optim::Sgd opt(model->parameters(),
                     optim::Sgd::Options{.lr = 0.05, .momentum = 0.9});
      for (int step = 0; step < 2; ++step) {
        opt.ZeroGrad();
        Tensor x = all_x.Narrow(0, ctx.rank * per_rank, per_rank).Clone();
        Tensor y = all_y.Narrow(0, ctx.rank * per_rank, per_rank).Clone();
        autograd::Backward(nn::MSELoss()(ddp.Forward(x), y));
        opt.Step();
      }
      std::vector<uint8_t> bytes;
      for (const Tensor& p : model->parameters()) {
        std::vector<uint8_t> b = TensorBytes(p);
        bytes.insert(bytes.end(), b.begin(), b.end());
      }
      rank_params[static_cast<size_t>(ctx.rank)] = std::move(bytes);
    });
    // Ranks must agree with each other, too.
    EXPECT_EQ(rank_params[0], rank_params[1]);
    return rank_params[0];
  });
  // Attention and the q/k/v/o/ff Linears under the same contract.
  ExpectBitExactAcrossThreadCounts("ddp_transformer_step", [] {
    const int world = 2;
    const int64_t per_rank = 4;
    nn::TransformerTiny::Config config;
    config.seq_len = 8;
    config.dim = 32;
    config.ff_dim = 64;
    config.num_heads = 2;
    Rng data_rng(43);
    std::vector<int64_t> token_ids(
        static_cast<size_t>(per_rank * world * config.seq_len));
    for (int64_t& id : token_ids) id = data_rng.UniformInt(config.vocab_size);
    std::vector<int64_t> label_ids(static_cast<size_t>(per_rank * world));
    for (int64_t& id : label_ids) id = data_rng.UniformInt(config.num_classes);
    const Tensor all_tokens = Tensor::FromVectorInt64(
        token_ids, {per_rank * world, config.seq_len});
    const Tensor all_labels =
        Tensor::FromVectorInt64(label_ids, {per_rank * world});

    std::vector<std::vector<uint8_t>> rank_params(world);
    comm::SimWorld::Run(world, [&](comm::SimWorld::RankContext& ctx) {
      Rng rng(47);
      auto model = std::make_shared<nn::TransformerTiny>(config, &rng);
      core::DistributedDataParallel ddp(model, ctx.process_group);
      optim::Sgd opt(model->parameters(),
                     optim::Sgd::Options{.lr = 0.05, .momentum = 0.9});
      for (int step = 0; step < 2; ++step) {
        opt.ZeroGrad();
        Tensor x = all_tokens.Narrow(0, ctx.rank * per_rank, per_rank).Clone();
        Tensor y = all_labels.Narrow(0, ctx.rank * per_rank, per_rank).Clone();
        autograd::Backward(nn::CrossEntropyLoss()(ddp.Forward(x), y));
        opt.Step();
      }
      std::vector<uint8_t> bytes;
      for (const Tensor& p : model->parameters()) {
        std::vector<uint8_t> b = TensorBytes(p);
        bytes.insert(bytes.end(), b.begin(), b.end());
      }
      rank_params[static_cast<size_t>(ctx.rank)] = std::move(bytes);
    });
    EXPECT_EQ(rank_params[0], rank_params[1]);
    return rank_params[0];
  });
}

}  // namespace
}  // namespace ddpkit
