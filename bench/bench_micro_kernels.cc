// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// DDP: tensor kernels, the ring all-reduce data plane, bucket gather
// copies, and fp16 conversion. These are real wall-clock measurements of
// this host's CPU, not virtual-time figures.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/algorithms.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/bucketing.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

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
// a row never silently reports the wrong ISA.
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

// Every lanewise vec.h entry point over a and b (its inputs) and out (its
// output, or the operand it updates in place), all n long; the
// accumulators' double forms use a64 and out64. The values keep every
// kernel finite and normal however many times a cell repeats it.
struct VecBuffers {
  explicit VecBuffers(int64_t n)
      : a(static_cast<size_t>(n), 0.75f),
        b(static_cast<size_t>(n), 1.25f),
        out(static_cast<size_t>(n), 0.5f),
        a64(static_cast<size_t>(n), 0.75),
        out64(static_cast<size_t>(n), 0.5) {}
  std::vector<float> a, b, out;
  std::vector<double> a64, out64;
};

struct VecKernel {
  const char* name;
  void (*run)(VecBuffers& v, int64_t n);
};

const VecKernel kVecKernels[] = {
    {"Add",
     [](VecBuffers& v, int64_t n) {
       vec::Add(v.a.data(), v.b.data(), v.out.data(), n);
     }},
    {"Sub",
     [](VecBuffers& v, int64_t n) {
       vec::Sub(v.a.data(), v.b.data(), v.out.data(), n);
     }},
    {"Mul",
     [](VecBuffers& v, int64_t n) {
       vec::Mul(v.a.data(), v.b.data(), v.out.data(), n);
     }},
    {"Div",
     [](VecBuffers& v, int64_t n) {
       vec::Div(v.a.data(), v.b.data(), v.out.data(), n);
     }},
    {"Scale",
     [](VecBuffers& v, int64_t n) {
       vec::Scale(v.a.data(), 0.5f, v.out.data(), n);
     }},
    {"AddScalar",
     [](VecBuffers& v, int64_t n) {
       vec::AddScalar(v.a.data(), 0.5f, v.out.data(), n);
     }},
    {"Neg",
     [](VecBuffers& v, int64_t n) { vec::Neg(v.a.data(), v.out.data(), n); }},
    {"Relu",
     [](VecBuffers& v, int64_t n) { vec::Relu(v.a.data(), v.out.data(), n); }},
    {"ReluBackward",
     [](VecBuffers& v, int64_t n) {
       vec::ReluBackward(v.a.data(), v.b.data(), v.out.data(), n);
     }},
    {"Sqrt",
     [](VecBuffers& v, int64_t n) { vec::Sqrt(v.a.data(), v.out.data(), n); }},
    {"Exp",
     [](VecBuffers& v, int64_t n) { vec::Exp(v.a.data(), v.out.data(), n); }},
    {"Tanh",
     [](VecBuffers& v, int64_t n) { vec::Tanh(v.a.data(), v.out.data(), n); }},
    {"Log",
     [](VecBuffers& v, int64_t n) { vec::Log(v.a.data(), v.out.data(), n); }},
    {"Sigmoid",
     [](VecBuffers& v, int64_t n) {
       vec::Sigmoid(v.a.data(), v.out.data(), n);
     }},
    {"Gelu",
     [](VecBuffers& v, int64_t n) { vec::Gelu(v.a.data(), v.out.data(), n); }},
    {"GeluBackward",
     [](VecBuffers& v, int64_t n) {
       vec::GeluBackward(v.a.data(), v.b.data(), v.out.data(), n);
     }},
    {"Axpy",
     [](VecBuffers& v, int64_t n) {
       vec::Axpy(0.5f, v.a.data(), v.out.data(), n);
     }},
    // −1 keeps the buffer at ±0.5, where a fraction would reach denormals.
    {"ScaleInPlace",
     [](VecBuffers& v, int64_t n) {
       vec::ScaleInPlace(v.out.data(), -1.0f, n);
     }},
    {"AccumulateAdd",
     [](VecBuffers& v, int64_t n) {
       vec::AccumulateAdd(v.out.data(), v.a.data(), n);
     }},
    {"AccumulateMax",
     [](VecBuffers& v, int64_t n) {
       vec::AccumulateMax(v.out.data(), v.a.data(), n);
     }},
    {"AccumulateAddF64",
     [](VecBuffers& v, int64_t n) {
       vec::AccumulateAdd(v.out64.data(), v.a64.data(), n);
     }},
    {"AccumulateMaxF64",
     [](VecBuffers& v, int64_t n) {
       vec::AccumulateMax(v.out64.data(), v.a64.data(), n);
     }},
};

void BM_Vec(benchmark::State& state, const VecKernel& kernel) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t n = state.range(1);
  VecBuffers v(n);
  for (auto _ : state) {
    kernel.run(v, n);
    benchmark::DoNotOptimize(v.out.data());
    benchmark::DoNotOptimize(v.out64.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// One cell per kernel, level and n, named BM_Vec<kernel>. At n = 10 every
// level runs the tail alone; 1024 floats fit in L1 and 2^16 in L2.
[[maybe_unused]] const bool kVecCellsRegistered = [] {
  for (const VecKernel& kernel : kVecKernels) {
    benchmark::RegisterBenchmark((std::string("BM_Vec") + kernel.name).c_str(),
                                 BM_Vec, kernel)
        ->ArgNames({"level", "n"})
        ->DDPKIT_SIMD_LEVEL_ARGS(10)
        ->DDPKIT_SIMD_LEVEL_ARGS(1024)
        ->DDPKIT_SIMD_LEVEL_ARGS(1 << 16);
  }
  return true;
}();

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

// The backward products at the mlp_w2 (batch 8) and transformer_w2 (128
// tokens) shapes: MatMul is Linear's grad_input and MatMulTransA Linear's
// grad_weight, out [m, n] over k terms. A quarter or more zeros in A keeps
// the skip-zero row loop, fewer take the register tile (masked if A holds
// any zero), so the `zeros` percentages straddle that constant:
// - 0: dense, as most of transformer_w2's gradients are (unmasked tile);
// - 20: the masked tile just below a quarter;
// - 30: the row loop just above it;
// - 50: ReLU-sparse, as every large mlp_w2 gradient is (row loop).
Tensor RandnWithZeros(std::vector<int64_t> shape, int64_t zeros_pct,
                      Rng* rng) {
  Tensor t = Tensor::Randn(std::move(shape), rng);
  float* p = t.data<float>();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng->Uniform() * 100.0 < static_cast<double>(zeros_pct)) p[i] = 0.0f;
  }
  return t;
}

void BM_MatMul(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(13);
  Tensor a = RandnWithZeros({m, k}, state.range(4), &rng);
  Tensor b = Tensor::Randn({k, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}

void BM_MatMulTransA(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(14);
  Tensor a = RandnWithZeros({k, m}, state.range(4), &rng);
  Tensor b = Tensor::Randn({k, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::MatMulTransA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}

// Both products over the same {m, k, n} cells, at each zero share.
void BackwardShapes(benchmark::internal::Benchmark* b,
                    const std::vector<std::vector<int64_t>>& shapes) {
  b->ArgNames({"level", "m", "k", "n", "zeros"});
  for (const auto& s : shapes) {
    for (const long zeros_pct : {0, 20, 30, 50}) {
      b->DDPKIT_SIMD_LEVEL_ARGS(s[0], s[1], s[2], zeros_pct);
    }
  }
}
BENCHMARK(BM_MatMul)->Apply([](benchmark::internal::Benchmark* b) {
  BackwardShapes(b, {{8, 1024, 784}, {8, 1024, 1024}, {128, 64, 64},
                     {128, 256, 64}, {128, 64, 256}});
});
BENCHMARK(BM_MatMulTransA)->Apply([](benchmark::internal::Benchmark* b) {
  BackwardShapes(b, {{1024, 8, 784}, {1024, 8, 1024}, {64, 128, 64},
                     {256, 128, 64}, {64, 128, 256}});
});

// GELU forward and backward at transformer_w2's feed-forward shape [128
// tokens, 256], and the row softmax at attention's [16, 16] score block and
// at [128, 256]; items are elements.
void BM_Gelu(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t m = state.range(1), n = state.range(2);
  Rng rng(15);
  Tensor x = Tensor::Randn({m, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::Gelu(x));
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_Gelu)
    ->ArgNames({"level", "m", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(128, 256);

void BM_GeluBackward(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t m = state.range(1), n = state.range(2);
  Rng rng(16);
  Tensor x = Tensor::Randn({m, n}, &rng);
  Tensor g = Tensor::Randn({m, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::GeluBackward(g, x));
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_GeluBackward)
    ->ArgNames({"level", "m", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(128, 256);

void BM_Softmax(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t m = state.range(1), n = state.range(2);
  Rng rng(17);
  Tensor x = Tensor::Randn({m, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::Softmax(x));
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_Softmax)
    ->ArgNames({"level", "m", "n"})
    ->DDPKIT_SIMD_LEVEL_ARGS(16, 16)
    ->DDPKIT_SIMD_LEVEL_ARGS(128, 256);

// Multi-head attention forward plus backward at transformer_w2's shape:
// batch 8, 16 tokens, model width 64 in 4 heads of 16, one Attention node.
// q, k and v are leaves, so their gradient accumulation is part of the
// cell; items are the multiply-adds of the six products (two forward, four
// backward).
void BM_Attention(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const int64_t b = state.range(1), s = state.range(2), d = state.range(3);
  Rng rng(19);
  Tensor q = Tensor::Randn({b, s, d}, &rng);
  Tensor k = Tensor::Randn({b, s, d}, &rng);
  Tensor v = Tensor::Randn({b, s, d}, &rng);
  const Tensor g = Tensor::Randn({b, s, d}, &rng);
  for (Tensor* t : {&q, &k, &v}) t->set_requires_grad(true);
  for (auto _ : state) {
    autograd::Backward(ops::Attention(q, k, v, state.range(4)), g);
  }
  state.SetItemsProcessed(state.iterations() * 6 * b * s * s * d);
}
BENCHMARK(BM_Attention)
    ->ArgNames({"level", "b", "s", "d", "heads"})
    ->DDPKIT_SIMD_LEVEL_ARGS(8, 16, 64, 4);

// One optimizer step of mlp_w2 (2.9 M parameters in its eight tensors,
// 1024×784 … 10) as training runs it: ZeroGrad, the one AccumulateGrad per
// parameter that backward leaves, then SGD with momentum 0.9. Items are
// parameter elements.
void BM_SgdStep(benchmark::State& state) {
  SimdLevelSweep sweep(state, static_cast<int>(state.range(0)));
  const std::vector<std::vector<int64_t>> shapes = {
      {1024, 784}, {1024}, {1024, 1024}, {1024},
      {1024, 1024}, {1024}, {10, 1024}, {10}};
  Rng rng(18);
  std::vector<Tensor> params, grads;
  int64_t elements = 0;
  for (const auto& shape : shapes) {
    params.push_back(Tensor::Rand(shape, &rng, -1.0, 1.0));
    grads.push_back(Tensor::Rand(shape, &rng, -1.0, 1.0));
    elements += params.back().numel();
  }
  optim::Sgd opt(params, optim::Sgd::Options{.lr = 1e-3, .momentum = 0.9});
  for (auto _ : state) {
    opt.ZeroGrad();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].AccumulateGrad(grads[i]);
    }
    opt.Step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * elements);
}
BENCHMARK(BM_SgdStep)
    ->ArgNames({"level"})
    ->Arg(static_cast<long>(vec::Level::kScalar))
    ->Arg(static_cast<long>(vec::Level::kAvx2))
    ->Arg(static_cast<long>(vec::Level::kAvx512));

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
