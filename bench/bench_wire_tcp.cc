// Real-wire micro-benchmarks (google-benchmark): wall-clock cost of
// ProcessGroupTcp collectives over loopback sockets and of StoreTcp RPCs,
// next to the in-memory data plane they must be bit-identical to. These
// are true wall-time measurements of this host (loopback TCP stack
// included) — the virtual-time figures live in bench_fig2_allreduce; the
// gap between the two is the transport overhead the paper's §2.3 hides
// inside NCCL/Gloo.

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "comm/algorithms.h"
#include "comm/process_group_tcp.h"
#include "comm/store.h"
#include "comm/store_tcp.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/virtual_clock.h"
#include "tensor/tensor.h"

namespace ddpkit {
namespace {

/// A persistent loopback mesh: rank 0 lives in the benchmark thread, the
/// helper ranks loop { broadcast go-flag; if stopped, exit; allreduce }.
/// The collectives themselves are the synchronization, so the timed loop
/// measures exactly one full-mesh all-reduce per iteration. A failed
/// collective poisons the group, so a helper leaves its loop on the first
/// one and rank 0 reports it through Step.
class WireMesh {
 public:
  WireMesh(int world, comm::Algorithm algorithm, int64_t numel)
      : world_(world) {
    comm::ProcessGroupTcp::Options options;
    options.algorithm = algorithm;
    for (int rank = 1; rank < world; ++rank) {
      helpers_.emplace_back([this, rank, world, options, numel] {
        sim::VirtualClock clock;
        auto group = comm::ProcessGroupTcp::Create(&store_, "bench", rank,
                                                   world, options, &clock);
        if (!group.ok()) return;
        Rng rng(static_cast<uint64_t>(rank));
        Tensor data = Tensor::Randn({numel}, &rng);
        Tensor flag = Tensor::Ones({1});
        comm::ProcessGroupTcp& pg = *group.value();
        while (pg.Broadcast(flag, 0)->Wait(&clock, 0.0).ok() &&
               flag.data<float>()[0] != 0.0f) {
          const Status st =
              pg.AllReduce(data, comm::ReduceOp::kSum)->Wait(&clock, 0.0);
          if (!st.ok()) break;
        }
      });
    }
    auto group = comm::ProcessGroupTcp::Create(&store_, "bench", 0, world,
                                               options, &clock_);
    if (group.ok()) group_ = group.value();
  }

  ~WireMesh() {
    if (group_ != nullptr) {
      Tensor stop = Tensor::Zeros({1});
      // A helper that already left on a failed collective never reads the
      // stop flag, and Step reported that failure; nothing is left to say.
      (void)group_->Broadcast(stop, 0)->Wait(&clock_, 0.0);
    }
    for (auto& t : helpers_) t.join();
  }

  bool ok() const { return group_ != nullptr; }

  /// One timed iteration; returns the first failed collective's Status.
  [[nodiscard]] Status Step(Tensor& data) {
    Tensor go = Tensor::Ones({1});
    const Status st = group_->Broadcast(go, 0)->Wait(&clock_, 0.0);
    if (!st.ok()) return st;
    return group_->AllReduce(data, comm::ReduceOp::kSum)->Wait(&clock_, 0.0);
  }

  int world() const { return world_; }

 private:
  int world_;
  comm::Store store_;
  sim::VirtualClock clock_;
  std::shared_ptr<comm::ProcessGroupTcp> group_;
  std::vector<std::thread> helpers_;
};

void BM_TcpAllReduce(benchmark::State& state) {
  const auto algorithm = static_cast<comm::Algorithm>(state.range(0));
  const int world = static_cast<int>(state.range(1));
  const int64_t n = state.range(2);
  WireMesh mesh(world, algorithm, n);
  if (!mesh.ok()) {
    state.SkipWithError("mesh bootstrap failed");
    return;
  }
  Rng rng(0);
  Tensor data = Tensor::Randn({n}, &rng);
  for (auto _ : state) {
    const Status st = mesh.Step(data);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(world) *
                          n * 4);
  state.SetLabel(comm::AlgorithmName(algorithm));
}
BENCHMARK(BM_TcpAllReduce)
    ->Args({static_cast<int>(comm::Algorithm::kRing), 4, 1 << 10})
    ->Args({static_cast<int>(comm::Algorithm::kRing), 4, 1 << 16})
    ->Args({static_cast<int>(comm::Algorithm::kRing), 4, 1 << 20})
    ->Args({static_cast<int>(comm::Algorithm::kHalvingDoubling), 4, 1 << 16})
    ->Args({static_cast<int>(comm::Algorithm::kNaive), 4, 1 << 16})
    ->Args({static_cast<int>(comm::Algorithm::kRing), 8, 1 << 16})
    ->Unit(benchmark::kMicrosecond);

/// The in-memory data plane on the same shape: the compute floor under the
/// wire numbers above.
void BM_SimAllReduceFloor(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  Rng rng(7);
  std::vector<Tensor> tensors;
  for (int r = 0; r < world; ++r) tensors.push_back(Tensor::Randn({n}, &rng));
  for (auto _ : state) {
    comm::RunAllReduce(comm::Algorithm::kRing, comm::ReduceOp::kSum, tensors);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(world) *
                          n * 4);
}
BENCHMARK(BM_SimAllReduceFloor)
    ->Args({4, 1 << 16})
    ->Args({8, 1 << 16})
    ->Unit(benchmark::kMicrosecond);

/// Store RPC round-trip (Set + Get) over one cached loopback connection —
/// the latency floor under every rendezvous key exchange.
void BM_StoreTcpSetGet(benchmark::State& state) {
  auto server = comm::StoreServerTcp::Start("127.0.0.1", 0);
  if (!server.ok()) {
    state.SkipWithError("store server failed to start");
    return;
  }
  comm::StoreClientTcp client("127.0.0.1", server.value()->port());
  int i = 0;
  for (auto _ : state) {
    const std::string key = "bench/" + std::to_string(i++ % 64);
    client.Set(key, "value");
    benchmark::DoNotOptimize(client.Get(key));
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two RPCs per step
}
BENCHMARK(BM_StoreTcpSetGet)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ddpkit

BENCHMARK_MAIN();
