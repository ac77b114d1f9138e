// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// DDP: tensor kernels, the ring all-reduce data plane, bucket gather
// copies, and fp16 conversion. These are real wall-clock measurements of
// this host's CPU, not virtual-time figures.

#include <benchmark/benchmark.h>

#include <vector>

#include "comm/algorithms.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/bucketing.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv2d(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(2);
  Tensor input = Tensor::Randn({1, c, 16, 16}, &rng);
  Tensor weight = Tensor::Randn({c, c, 3, 3}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::Conv2d(input, weight, kernels::Conv2dArgs{1, 1}));
  }
  // MACs per conv: out_elems * cin * kh * kw.
  state.SetItemsProcessed(state.iterations() * c * 16 * 16 * c * 3 * 3);
}
BENCHMARK(BM_Conv2d)->Arg(4)->Arg(8)->Arg(16);

void BM_RingAllReduceData(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  Rng rng(3);
  std::vector<Tensor> tensors;
  for (int r = 0; r < world; ++r) tensors.push_back(Tensor::Randn({n}, &rng));
  for (auto _ : state) {
    comm::RunAllReduce(comm::Algorithm::kRing, comm::ReduceOp::kSum, tensors);
  }
  state.SetBytesProcessed(state.iterations() * world * n * 4);
  state.SetItemsProcessed(state.iterations() * world * n);
}
BENCHMARK(BM_RingAllReduceData)
    ->Args({2, 1 << 16})
    ->Args({4, 1 << 16})
    ->Args({8, 1 << 16})
    ->Args({4, 1 << 20});

void BM_ZooAllReduceData(benchmark::State& state) {
  // Real data-plane wall time for every zoo variant at a fixed shape, so
  // the modeled speedups in bench_fig2_allreduce have a measured
  // counterpart for the combine work itself.
  const auto algo = static_cast<comm::Algorithm>(state.range(0));
  const int world = 8;
  const int64_t n = state.range(1);
  Rng rng(11);
  std::vector<Tensor> tensors;
  for (int r = 0; r < world; ++r) tensors.push_back(Tensor::Randn({n}, &rng));
  for (auto _ : state) {
    comm::RunAllReduce(algo, comm::ReduceOp::kSum, tensors);
  }
  state.SetBytesProcessed(state.iterations() * world * n * 4);
  state.SetItemsProcessed(state.iterations() * world * n);
  state.SetLabel(comm::AlgorithmName(algo));
}
BENCHMARK(BM_ZooAllReduceData)
    ->ArgNames({"algo", "n"})
    ->Args({static_cast<long>(sim::CollectiveAlgorithm::kNaive), 1 << 18})
    ->Args({static_cast<long>(sim::CollectiveAlgorithm::kRing), 1 << 18})
    ->Args({static_cast<long>(sim::CollectiveAlgorithm::kRingChunked),
            1 << 18})
    ->Args({static_cast<long>(sim::CollectiveAlgorithm::kHalvingDoubling),
            1 << 18})
    ->Args({static_cast<long>(sim::CollectiveAlgorithm::kHierarchical),
            1 << 18});

void BM_NaiveAllReduceData(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  Rng rng(4);
  std::vector<Tensor> tensors;
  for (int r = 0; r < world; ++r) tensors.push_back(Tensor::Randn({n}, &rng));
  for (auto _ : state) {
    comm::RunAllReduce(comm::Algorithm::kNaive, comm::ReduceOp::kSum,
                       tensors);
  }
  state.SetBytesProcessed(state.iterations() * world * n * 4);
}
BENCHMARK(BM_NaiveAllReduceData)->Args({4, 1 << 16})->Args({4, 1 << 20});

void BM_BucketAssignment(benchmark::State& state) {
  // ResNet50-scale inventory, 25 MB cap — the constructor-time cost.
  std::vector<core::ParamMeta> params;
  Rng rng(5);
  for (int i = 0; i < 161; ++i) {
    const int64_t numel = 512 + static_cast<int64_t>(rng.UniformInt(2 << 20));
    params.push_back(core::ParamMeta{numel, static_cast<size_t>(numel) * 4, 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AssignBuckets(params, 25u << 20));
  }
}
BENCHMARK(BM_BucketAssignment);

void BM_BucketCopy(benchmark::State& state) {
  // Gradient -> bucket flattening (Algorithm 1 lines 15-16).
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor grad = Tensor::Randn({n}, &rng);
  Tensor bucket = Tensor::Zeros({n * 4});
  for (auto _ : state) {
    bucket.Narrow(0, n, n).CopyFrom(grad);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_BucketCopy)->Arg(1 << 16)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Thread-scaling sweep: the same kernels at 1/2/4/8 pool threads. Each
// benchmark resizes the global pool before timing and restores the prior
// size afterwards so the serial benchmarks are unaffected by ordering. On a
// single-core host these curves are flat (or show dispatch overhead); on
// multi-core hosts they show the intra-op speedup. The "threads" arg name
// keys the sweep in the JSON report.
// ---------------------------------------------------------------------------

class ThreadSweep {
 public:
  explicit ThreadSweep(int threads)
      : prev_(ThreadPool::Global().num_threads()) {
    ThreadPool::SetNumThreads(threads);
  }
  ~ThreadSweep() { ThreadPool::SetNumThreads(prev_); }

 private:
  int prev_;
};

void BM_ElementwiseAddThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  Rng rng(8);
  Tensor a = Tensor::Randn({n}, &rng);
  Tensor b = Tensor::Randn({n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::Add(a, b));
  }
  state.SetBytesProcessed(state.iterations() * n * 4 * 3);
}
BENCHMARK(BM_ElementwiseAddThreads)
    ->ArgNames({"threads", "n"})
    ->Args({1, 1 << 20})
    ->Args({2, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({8, 1 << 20});

void BM_MatMulThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  Rng rng(9);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulThreads)
    ->ArgNames({"threads", "n"})
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({4, 256})
    ->Args({8, 256});

void BM_RingAllReduceThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  const int world = 4;
  const int64_t n = state.range(1);
  Rng rng(10);
  std::vector<Tensor> tensors;
  for (int r = 0; r < world; ++r) tensors.push_back(Tensor::Randn({n}, &rng));
  for (auto _ : state) {
    comm::RunAllReduce(comm::Algorithm::kRing, comm::ReduceOp::kSum, tensors);
  }
  state.SetBytesProcessed(state.iterations() * world * n * 4);
}
BENCHMARK(BM_RingAllReduceThreads)
    ->ArgNames({"threads", "n"})
    ->Args({1, 1 << 20})
    ->Args({2, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({8, 1 << 20});

// ---------------------------------------------------------------------------
// SIMD dispatch-level sweep: the vec.h batch kernels at scalar / AVX2 /
// AVX-512, per-element throughput (items/s). Levels the host cannot
// execute clamp down and are labeled with the level that actually ran, so
// a row never silently reports the wrong ISA. The all-reduce combine
// primitive (AccumulateAdd) is the acceptance surface: the vectorized
// levels must beat scalar by >= 2x per element on AVX2-class hosts.
// ---------------------------------------------------------------------------

class SimdLevelSweep {
 public:
  explicit SimdLevelSweep(benchmark::State& state, int requested)
      : prev_(vec::ActiveLevel()) {
    const vec::Level got =
        vec::SetLevelForTesting(static_cast<vec::Level>(requested));
    state.SetLabel(vec::LevelName(got));
  }
  ~SimdLevelSweep() { vec::SetLevelForTesting(prev_); }

 private:
  vec::Level prev_;
};

// One cell per level for the given trailing args; the registration names
// the args with ArgNames({"level", ...}) first.
#define DDPKIT_SIMD_LEVEL_ARGS(...)                                  \
  Args({static_cast<long>(vec::Level::kScalar), __VA_ARGS__})        \
      ->Args({static_cast<long>(vec::Level::kAvx2), __VA_ARGS__})    \
      ->Args({static_cast<long>(vec::Level::kAvx512), __VA_ARGS__})

void BM_VecAccumulateAdd(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  std::vector<float> dst(static_cast<size_t>(n), 1.0f);
  std::vector<float> src(static_cast<size_t>(n), 0.5f);
  for (auto _ : state) {
    vec::AccumulateAdd(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 4 * 3);
}
BENCHMARK(BM_VecAccumulateAdd)
    ->ArgNames({"level", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(1 << 16);

void BM_VecAccumulateMax(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  std::vector<float> dst(static_cast<size_t>(n), 1.0f);
  std::vector<float> src(static_cast<size_t>(n), 0.5f);
  for (auto _ : state) {
    vec::AccumulateMax(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 4 * 3);
}
BENCHMARK(BM_VecAccumulateMax)
    ->ArgNames({"level", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(1 << 16);

void BM_VecAdd(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  std::vector<float> a(static_cast<size_t>(n), 1.0f);
  std::vector<float> b(static_cast<size_t>(n), 2.0f);
  std::vector<float> out(static_cast<size_t>(n));
  for (auto _ : state) {
    vec::Add(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 4 * 3);
}
BENCHMARK(BM_VecAdd)
    ->ArgNames({"level", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(1 << 16);

void BM_VecAxpy(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  std::vector<float> x(static_cast<size_t>(n), 1.0f);
  std::vector<float> y(static_cast<size_t>(n), 2.0f);
  for (auto _ : state) {
    vec::Axpy(0.5f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 4 * 3);
}
BENCHMARK(BM_VecAxpy)
    ->ArgNames({"level", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(1 << 16);

// The Linear forward, C[m,n] = A[m,k] · B[n,k]ᵀ, at the mlp_w2 (batch 8)
// and transformer_w2 (128 tokens) shapes; items are multiply-adds.
void BM_MatMulTransB(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(12);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b = Tensor::Randn({n, k}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMulTransB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulTransB)
    ->ArgNames({"level", "m", "k", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(8, 784, 1024)
    ->DDPKIT_SIMD_LEVEL_ARGS(8, 1024, 1024)
    ->DDPKIT_SIMD_LEVEL_ARGS(128, 64, 256)
    ->DDPKIT_SIMD_LEVEL_ARGS(128, 256, 64);

void BM_Fp16Conversion(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  Tensor src = Tensor::Randn({n}, &rng);
  for (auto _ : state) {
    const float* p = src.data<float>();
    uint64_t acc = 0;
    for (int64_t i = 0; i < n; ++i) acc += Float32ToHalfBits(p[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fp16Conversion)->Arg(1 << 16);

}  // namespace
}  // namespace ddpkit

BENCHMARK_MAIN();
