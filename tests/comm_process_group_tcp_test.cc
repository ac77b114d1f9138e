// ProcessGroupTcp over loopback, in-process: every rank is a thread with
// its own group instance, rendezvousing through one shared in-memory Store
// (keys only — payload moves over real sockets). The headline property is
// the cross-check gate in miniature: the socket executor must be
// BIT-IDENTICAL to the in-memory executor (RunAllReduceRaw) running the
// same step programs on the same inputs, not merely numerically close.
// Plus the typed failure taxonomy: timeout, shape mismatch, unsupported
// collectives, malformed peer addresses, abort/generation, and
// post-failure poisoning.
//
// All sockets bind port 0 and publish through the store, so the suite is
// port-collision-proof by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/algorithms.h"
#include "comm/fault_plan.h"
#include "comm/net_fault.h"
#include "comm/process_group_tcp.h"
#include "comm/sim_world.h"
#include "comm/store.h"
#include "comm/store_keys.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/virtual_clock.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {
namespace {

class Latch {
 public:
  explicit Latch(int count) : count_(count) {}
  void CountDown() {
    MutexLock lock(&mu_);
    if (--count_ == 0) cv_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(&mu_);
    while (count_ > 0) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int count_ GUARDED_BY(mu_);
};

using Group = std::shared_ptr<ProcessGroupTcp>;

/// Spawns `world` rank threads, each with its own VirtualClock and TCP
/// group on a shared in-memory store, and runs `body(rank, group)`. A latch
/// holds every group alive until all bodies finish, so no rank's destructor
/// tears sockets out from under a straggler mid-collective.
void RunTcpWorld(int world, const ProcessGroupTcp::Options& options,
                 const std::function<void(int, const Group&)>& body) {
  Store store;
  Latch done(world);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      sim::VirtualClock clock;
      Result<Group> group =
          ProcessGroupTcp::Create(&store, "test", rank, world, options, &clock);
      if (!group.ok()) {
        ADD_FAILURE() << "rank " << rank
                      << " bootstrap: " << group.status().ToString();
        done.CountDown();
        return;
      }
      body(rank, group.value());
      done.CountDown();
      done.Wait();  // keep the mesh alive until every rank is through
    });
  }
  for (auto& t : threads) t.join();
}

Tensor FromVec(const std::vector<float>& values) {
  return Tensor::FromVector(values, {static_cast<int64_t>(values.size())});
}

Tensor FromVecInt64(const std::vector<int64_t>& values) {
  return Tensor::FromVectorInt64(values,
                                 {static_cast<int64_t>(values.size())});
}

std::vector<std::vector<float>> MakeInputs(int world, int64_t n,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> bufs(static_cast<size_t>(world));
  for (auto& b : bufs) {
    b.resize(static_cast<size_t>(n));
    for (auto& x : b) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  return bufs;
}

// Every algorithm over the wire: the six concrete ones (kHierarchical at two
// node shapes on the flat localhost mesh) plus kAuto.
struct WireCase {
  Algorithm algorithm;
  int ranks_per_node;
};
const WireCase kWireZoo[] = {
    {Algorithm::kNaive, 0},           {Algorithm::kRing, 0},
    {Algorithm::kRingChunked, 0},     {Algorithm::kHalvingDoubling, 0},
    {Algorithm::kTree, 0},            {Algorithm::kHierarchical, 2},
    {Algorithm::kHierarchical, 3},    {Algorithm::kAuto, 0}};

// The gate: for every algorithm and several world sizes (including non
// powers of two and worlds bigger than the element remainder), the TCP
// all-reduce must produce exactly the bytes the in-memory executor produces.
TEST(ProcessGroupTcpTest, AllReduceBitExactVsSimZoo) {
  const int worlds[] = {2, 3, 5, 8};
  const int64_t n = 193;  // prime: uneven chunking in every schedule
  for (const WireCase& wc : kWireZoo) {
    for (int world : worlds) {
      SCOPED_TRACE(std::string(AlgorithmName(wc.algorithm)) + " rpn " +
                   std::to_string(wc.ranks_per_node) + " world " +
                   std::to_string(world));
      const auto inputs = MakeInputs(
          world, n, 0xbeef + static_cast<uint64_t>(world));

      // Reference: the in-memory executor on a copy of the same inputs.
      auto reference = inputs;
      std::vector<float*> pointers;
      for (auto& b : reference) pointers.push_back(b.data());
      RunAllReduceRaw<float>(wc.algorithm, ReduceOp::kSum, pointers, n,
                             wc.ranks_per_node);

      ProcessGroupTcp::Options options;
      options.algorithm = wc.algorithm;
      options.ranks_per_node = wc.ranks_per_node;
      std::vector<std::vector<float>> wire(static_cast<size_t>(world));
      RunTcpWorld(world, options, [&](int rank, const Group& group) {
        Tensor tensor = FromVec(inputs[static_cast<size_t>(rank)]);
        WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
        ASSERT_TRUE(work->status().ok())
            << "rank " << rank << ": " << work->status().ToString();
        wire[static_cast<size_t>(rank)].assign(
            tensor.data<float>(), tensor.data<float>() + tensor.numel());
      });

      for (int rank = 0; rank < world; ++rank) {
        EXPECT_EQ(0, std::memcmp(reference[static_cast<size_t>(rank)].data(),
                                 wire[static_cast<size_t>(rank)].data(),
                                 static_cast<size_t>(n) * sizeof(float)))
            << "rank " << rank << " differs from the sim reference";
      }
    }
  }
}

// kAuto resolves per collective (message size x world through the sim
// selector); whatever it picks must still match the sim's kAuto result.
TEST(ProcessGroupTcpTest, AutoAlgorithmResolvesAndMatchesSim) {
  const int world = 4;
  const int64_t n = 4096;
  const auto inputs = MakeInputs(world, n, 0xa070);
  auto reference = inputs;
  std::vector<float*> pointers;
  for (auto& b : reference) pointers.push_back(b.data());
  RunAllReduceRaw<float>(Algorithm::kAuto, ReduceOp::kSum, pointers, n);

  ProcessGroupTcp::Options options;
  options.algorithm = Algorithm::kAuto;
  std::vector<std::vector<float>> wire(static_cast<size_t>(world));
  RunTcpWorld(world, options, [&](int rank, const Group& group) {
    Tensor tensor = FromVec(inputs[static_cast<size_t>(rank)]);
    WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
    ASSERT_TRUE(work->status().ok()) << work->status().ToString();
    wire[static_cast<size_t>(rank)].assign(
        tensor.data<float>(), tensor.data<float>() + tensor.numel());
  });
  for (int rank = 0; rank < world; ++rank) {
    EXPECT_EQ(0, std::memcmp(reference[static_cast<size_t>(rank)].data(),
                             wire[static_cast<size_t>(rank)].data(),
                             static_cast<size_t>(n) * sizeof(float)));
  }
}

// A large message on a two-node layout: kAuto resolves to kHierarchical
// (the single resolution every caller shares) and the wire result matches
// the in-memory executor for the same layout.
TEST(ProcessGroupTcpTest, AutoResolvesHierarchicalOnTwoNodeLayout) {
  const int world = 4;
  const int ranks_per_node = 2;
  const int64_t n = 65536;  // 256 KB: past the latency-bound regime
  ASSERT_EQ(Algorithm::kHierarchical,
            ResolveAlgorithm(Algorithm::kAuto,
                             static_cast<size_t>(n) * sizeof(float), world,
                             ranks_per_node));
  const auto inputs = MakeInputs(world, n, 0xa071);
  auto reference = inputs;
  std::vector<float*> pointers;
  for (auto& b : reference) pointers.push_back(b.data());
  RunAllReduceRaw<float>(Algorithm::kAuto, ReduceOp::kSum, pointers, n,
                         ranks_per_node);
  auto hierarchical = inputs;
  pointers.clear();
  for (auto& b : hierarchical) pointers.push_back(b.data());
  RunAllReduceRaw<float>(Algorithm::kHierarchical, ReduceOp::kSum, pointers,
                         n, ranks_per_node);
  EXPECT_EQ(reference, hierarchical);

  ProcessGroupTcp::Options options;
  options.algorithm = Algorithm::kAuto;
  options.ranks_per_node = ranks_per_node;
  std::vector<std::vector<float>> wire(static_cast<size_t>(world));
  RunTcpWorld(world, options, [&](int rank, const Group& group) {
    Tensor tensor = FromVec(inputs[static_cast<size_t>(rank)]);
    WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
    ASSERT_TRUE(work->status().ok()) << work->status().ToString();
    wire[static_cast<size_t>(rank)].assign(
        tensor.data<float>(), tensor.data<float>() + tensor.numel());
  });
  for (int rank = 0; rank < world; ++rank) {
    EXPECT_EQ(0, std::memcmp(reference[static_cast<size_t>(rank)].data(),
                             wire[static_cast<size_t>(rank)].data(),
                             static_cast<size_t>(n) * sizeof(float)))
        << "rank " << rank;
  }
}

TEST(ProcessGroupTcpTest, MaxAndIntegerDtypesMatchSim) {
  const int world = 3;
  ProcessGroupTcp::Options options;
  options.algorithm = Algorithm::kRing;
  RunTcpWorld(world, options, [&](int rank, const Group& group) {
    // float32 max
    {
      std::vector<float> mine(64);
      for (size_t i = 0; i < mine.size(); ++i) {
        mine[i] = static_cast<float>((rank * 31 + static_cast<int>(i) * 7) %
                                     97) - 48.0f;
      }
      Tensor tensor = FromVec(mine);
      WorkHandle work = group->AllReduce(tensor, ReduceOp::kMax);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      for (int64_t i = 0; i < tensor.numel(); ++i) {
        float expected = -1e30f;
        for (int r = 0; r < world; ++r) {
          const float x = static_cast<float>(
              (r * 31 + static_cast<int>(i) * 7) % 97) - 48.0f;
          expected = std::max(expected, x);
        }
        EXPECT_EQ(expected, tensor.data<float>()[i]) << "element " << i;
      }
    }
    // int64 sum (associative: exact regardless of order)
    {
      std::vector<int64_t> mine(33);
      for (size_t i = 0; i < mine.size(); ++i) {
        mine[i] = (rank + 1) * 1000 + static_cast<int64_t>(i);
      }
      Tensor tensor = FromVecInt64(mine);
      WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      for (int64_t i = 0; i < tensor.numel(); ++i) {
        int64_t expected = 0;
        for (int r = 0; r < world; ++r) expected += (r + 1) * 1000 + i;
        EXPECT_EQ(expected, tensor.data<int64_t>()[i]);
      }
    }
    // uint8 bitwise-or (the used-parameter bitmap path)
    {
      Tensor tensor = Tensor::Zeros({8}, DType::kUInt8);
      tensor.data<uint8_t>()[rank] = static_cast<uint8_t>(1 << rank);
      WorkHandle work = group->AllReduce(tensor, ReduceOp::kBor);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      for (int r = 0; r < world; ++r) {
        EXPECT_EQ(static_cast<uint8_t>(1 << r), tensor.data<uint8_t>()[r]);
      }
    }
  });
}

TEST(ProcessGroupTcpTest, OtherCollectivesMatchReference) {
  const int world = 4;
  const int64_t n = 24;
  const auto inputs = MakeInputs(world, n, 0xc0);
  ProcessGroupTcp::Options options;
  options.algorithm = Algorithm::kRing;
  RunTcpWorld(world, options, [&](int rank, const Group& group) {
    // Broadcast: everyone ends with root's buffer.
    {
      Tensor tensor = FromVec(inputs[static_cast<size_t>(rank)]);
      WorkHandle work = group->Broadcast(tensor, /*root=*/2);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      EXPECT_EQ(0, std::memcmp(inputs[2].data(), tensor.data<float>(),
                               static_cast<size_t>(n) * sizeof(float)));
    }
    // AllGather: rank-order concatenation everywhere.
    {
      Tensor input = FromVec(inputs[static_cast<size_t>(rank)]);
      Tensor output = Tensor::Zeros({world * n});
      WorkHandle work = group->AllGather(input, output);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      for (int r = 0; r < world; ++r) {
        EXPECT_EQ(0, std::memcmp(inputs[static_cast<size_t>(r)].data(),
                                 output.data<float>() + r * n,
                                 static_cast<size_t>(n) * sizeof(float)))
            << "gathered slot " << r;
      }
    }
    // Reduce to root 1: ascending-order sum lands on the root only.
    {
      Tensor tensor = FromVec(inputs[static_cast<size_t>(rank)]);
      WorkHandle work = group->Reduce(tensor, /*root=*/1, ReduceOp::kSum);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      if (rank == 1) {
        for (int64_t i = 0; i < n; ++i) {
          // Same ascending combine order as the sim reference.
          float expected = inputs[0][static_cast<size_t>(i)];
          for (int r = 1; r < world; ++r) {
            expected += inputs[static_cast<size_t>(r)][static_cast<size_t>(i)];
          }
          EXPECT_EQ(expected, tensor.data<float>()[i]) << "element " << i;
        }
      }
    }
    // ReduceScatter: rank r owns the fully-reduced chunk r. Reference is
    // the sim ring phase 1 on the same inputs.
    {
      std::vector<Tensor> ref_inputs, ref_outputs;
      for (int r = 0; r < world; ++r) {
        ref_inputs.push_back(
            FromVec(inputs[static_cast<size_t>(r)]));
        ref_outputs.push_back(Tensor::Zeros({n / world}));
      }
      RunReduceScatter(ReduceOp::kSum, ref_inputs, ref_outputs);

      Tensor input = FromVec(inputs[static_cast<size_t>(rank)]);
      Tensor output = Tensor::Zeros({n / world});
      WorkHandle work = group->ReduceScatter(input, output, ReduceOp::kSum);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      EXPECT_EQ(0,
                std::memcmp(ref_outputs[static_cast<size_t>(rank)]
                                .data<float>(),
                            output.data<float>(),
                            static_cast<size_t>(n / world) * sizeof(float)));
    }
    // Gather to root 3.
    {
      Tensor input = FromVec(inputs[static_cast<size_t>(rank)]);
      Tensor output = Tensor::Zeros({world * n});
      WorkHandle work = group->Gather(input, output, /*root=*/3);
      ASSERT_TRUE(work->status().ok()) << work->status().ToString();
      if (rank == 3) {
        for (int r = 0; r < world; ++r) {
          EXPECT_EQ(0, std::memcmp(inputs[static_cast<size_t>(r)].data(),
                                   output.data<float>() + r * n,
                                   static_cast<size_t>(n) * sizeof(float)));
        }
      }
    }
    group->Barrier();  // and the token star runs clean on a healthy mesh
  });
}

// Collectives outside the (collective, dtype, op) support table fail the
// same typed way on both backends — kFailedPrecondition at issue time, before
// any byte moves — and leave the group usable: a valid all-reduce right
// after them still pairs up and sums correctly.
TEST(ProcessGroupTcpTest, UnsupportedCollectivesFailTypedOnBothBackends) {
  using Issue = std::function<WorkHandle(ProcessGroup&)>;
  const std::vector<std::pair<std::string, Issue>> cases = {
      {"all_reduce float64",
       [](ProcessGroup& pg) {
         return pg.AllReduce(Tensor::Ones({4}, DType::kFloat64),
                             ReduceOp::kSum);
       }},
      {"all_reduce float16 max",
       [](ProcessGroup& pg) {
         return pg.AllReduce(Tensor::Zeros({4}, DType::kFloat16),
                             ReduceOp::kMax);
       }},
      {"all_reduce float16 bor",
       [](ProcessGroup& pg) {
         return pg.AllReduce(Tensor::Zeros({4}, DType::kFloat16),
                             ReduceOp::kBor);
       }},
      {"reduce float64",
       [](ProcessGroup& pg) {
         return pg.Reduce(Tensor::Ones({4}, DType::kFloat64), 0,
                          ReduceOp::kSum);
       }},
      {"reduce float16",
       [](ProcessGroup& pg) {
         return pg.Reduce(Tensor::Zeros({4}, DType::kFloat16), 0,
                          ReduceOp::kSum);
       }},
      {"reduce_scatter int64",
       [](ProcessGroup& pg) {
         return pg.ReduceScatter(Tensor::Zeros({4}, DType::kInt64),
                                 Tensor::Zeros({2}, DType::kInt64),
                                 ReduceOp::kSum);
       }},
      {"reduce_scatter float64",
       [](ProcessGroup& pg) {
         return pg.ReduceScatter(Tensor::Ones({4}, DType::kFloat64),
                                 Tensor::Zeros({2}, DType::kFloat64),
                                 ReduceOp::kSum);
       }},
  };
  auto check = [&](const std::string& backend, int rank, ProcessGroup& pg,
                   sim::VirtualClock* clock) {
    for (const auto& [name, issue] : cases) {
      WorkHandle work = issue(pg);
      ASSERT_TRUE(work->Poll()) << backend << " " << name;
      EXPECT_EQ(StatusCode::kFailedPrecondition, work->status().code())
          << backend << " rank " << rank << " " << name << ": "
          << work->status().ToString();
    }
    Tensor ok = Tensor::Full({3}, rank + 1.0);
    WorkHandle work = pg.AllReduce(ok, ReduceOp::kSum);
    ASSERT_TRUE(work->Wait(clock, 30.0).ok()) << backend;
    EXPECT_EQ(3.0, ok.FlatAt(0)) << backend;
  };
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    check("sim", ctx.rank, *ctx.process_group, ctx.clock);
  });
  RunTcpWorld(2, ProcessGroupTcp::Options(), [&](int rank, const Group& g) {
    check("tcp", rank, *g, g->clock());
  });
}

// A peer address in the Store that is not host:port with a port in
// 1..65535 fails the bootstrap at once as kInternal, instead of dialling a
// bogus port until the connect deadline runs out.
TEST(ProcessGroupTcpTest, MalformedPeerAddressFailsFast) {
  const char* bad[] = {"127.0.0.1:abc", "127.0.0.1:99999999999999999999",
                       "127.0.0.1:0",   "127.0.0.1:65536",
                       "127.0.0.1:80x", "no-port"};
  for (const char* address : bad) {
    SCOPED_TRACE(address);
    Store store;
    // Rank 0 never starts; its published address is garbage.
    store.Set(store_keys::PgTcpRankKey(store_keys::PgTcpPrefix("bad", 0), 0),
              address);
    ProcessGroupTcp::Options options;
    options.connect_timeout_seconds = 20.0;
    sim::VirtualClock clock;
    // ddplint: allow(banned-nondeterminism) the connect deadline is real
    // time, so only a wall clock can show the bootstrap did not wait for it.
    const auto start = std::chrono::steady_clock::now();
    Result<Group> group =
        ProcessGroupTcp::Create(&store, "bad", 1, 2, options, &clock);
    const double elapsed =
        // ddplint: allow(banned-nondeterminism) the same wall-clock bound.
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_FALSE(group.ok());
    EXPECT_EQ(StatusCode::kInternal, group.status().code())
        << group.status().ToString();
    EXPECT_NE(std::string::npos,
              group.status().message().find("malformed peer address"))
        << group.status().ToString();
    EXPECT_LT(elapsed, 2.0) << "must fail fast, not at the connect deadline";
  }
}

// A peer that never issues the collective: the issuing rank times out with
// the typed verdict (not a hang, not an abort), and the group is poisoned —
// the next collective fails fast as kInternal.
TEST(ProcessGroupTcpTest, MissingPeerTimesOutTypedThenPoisons) {
  Store store;
  ProcessGroupTcp::Options options;
  options.collective_timeout_seconds = 0.5;
  Latch done(2);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      sim::VirtualClock clock;
      Result<Group> group =
          ProcessGroupTcp::Create(&store, "timeout", rank, 2, options, &clock);
      ASSERT_TRUE(group.ok()) << group.status().ToString();
      if (rank == 0) {
        Tensor tensor = Tensor::Ones({16});
        WorkHandle work = group.value()->AllReduce(tensor, ReduceOp::kSum);
        EXPECT_EQ(StatusCode::kTimedOut, work->status().code())
            << work->status().ToString();

        WorkHandle after = group.value()->AllReduce(tensor, ReduceOp::kSum);
        EXPECT_EQ(StatusCode::kInternal, after->status().code())
            << "poisoned group must fail fast, got: "
            << after->status().ToString();
      }
      // Rank 1 issues nothing; both wait so destructors don't race the
      // timing-out collective.
      done.CountDown();
      done.Wait();
    });
  }
  for (auto& t : threads) t.join();
}

// Ranks disagreeing on the collective's shape: the neighbour header
// exchange catches it on both sides as kFailedPrecondition before any payload
// moves.
TEST(ProcessGroupTcpTest, ShapeMismatchIsTypedOnBothSides) {
  Store store;
  ProcessGroupTcp::Options options;
  options.collective_timeout_seconds = 5.0;
  Latch done(2);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      sim::VirtualClock clock;
      Result<Group> group =
          ProcessGroupTcp::Create(&store, "shape", rank, 2, options, &clock);
      ASSERT_TRUE(group.ok()) << group.status().ToString();
      Tensor tensor = Tensor::Ones({rank == 0 ? 8 : 9});
      WorkHandle work = group.value()->AllReduce(tensor, ReduceOp::kSum);
      EXPECT_EQ(StatusCode::kFailedPrecondition, work->status().code())
          << "rank " << rank << ": " << work->status().ToString();
      done.CountDown();
      done.Wait();
    });
  }
  for (auto& t : threads) t.join();
}

// AbortGroup from another thread (the elastic-recovery regroup path): the
// in-flight collective wakes via the abort pipe and fails as
// kInvalidGeneration, superseded_by() records the successor, and later
// collectives fail the same way — no poisoning into kInternal, because
// the caller is expected to regroup, not to declare the peer dead.
TEST(ProcessGroupTcpTest, AbortUnblocksInflightCollectiveTyped) {
  Store store;
  ProcessGroupTcp::Options options;
  options.collective_timeout_seconds = 30.0;  // abort must win, not timeout
  Latch ready(2);
  Latch done(2);
  Group groups[2];
  std::thread ranks[2];
  for (int rank = 0; rank < 2; ++rank) {
    ranks[rank] = std::thread([&, rank] {
      sim::VirtualClock clock;
      Result<Group> group =
          ProcessGroupTcp::Create(&store, "abort", rank, 2, options, &clock);
      ASSERT_TRUE(group.ok()) << group.status().ToString();
      groups[rank] = group.value();
      ready.CountDown();
      if (rank == 0) {
        Tensor tensor = Tensor::Ones({16});
        WorkHandle work = groups[0]->AllReduce(tensor, ReduceOp::kSum);
        EXPECT_EQ(StatusCode::kInvalidGeneration, work->status().code())
            << work->status().ToString();
        EXPECT_EQ(1u, groups[0]->superseded_by());

        WorkHandle after = groups[0]->AllReduce(tensor, ReduceOp::kSum);
        EXPECT_EQ(StatusCode::kInvalidGeneration, after->status().code());
      }
      done.CountDown();
      done.Wait();
    });
  }
  ready.Wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  groups[0]->AbortGroup(1, "superseded by test generation 1");
  for (auto& t : ranks) t.join();
}

// --- connection supervisor: reconnect, replay, heartbeat -------------------

/// RunTcpWorld with one shared WireFaultPlan and a per-rank injector (one
/// per process in production; one per rank thread here), supervisor options
/// included. `tweak` edits the options every rank shares.
void RunChaosWorld(
    int world, const WireFaultPlan& plan, ProcessGroupTcp::Options options,
    const std::function<void(int, const Group&, WireFaultInjector&)>& body) {
  Store store;
  Latch done(world);
  std::vector<std::unique_ptr<WireFaultInjector>> injectors;
  for (int rank = 0; rank < world; ++rank) {
    injectors.push_back(std::make_unique<WireFaultInjector>(&plan, rank));
  }
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      sim::VirtualClock clock;
      ProcessGroupTcp::Options mine = options;
      mine.fault_injector = injectors[static_cast<size_t>(rank)].get();
      Result<Group> group =
          ProcessGroupTcp::Create(&store, "chaos", rank, world, mine, &clock);
      if (!group.ok()) {
        ADD_FAILURE() << "rank " << rank
                      << " bootstrap: " << group.status().ToString();
        done.CountDown();
        return;
      }
      body(rank, group.value(), *injectors[static_cast<size_t>(rank)]);
      done.CountDown();
      done.Wait();
    });
  }
  for (auto& t : threads) t.join();
}

ProcessGroupTcp::Options SupervisedOptions() {
  ProcessGroupTcp::Options options;
  options.algorithm = Algorithm::kRing;
  options.collective_timeout_seconds = 20.0;
  options.max_reconnect_attempts = 5;
  options.reconnect_timeout_seconds = 2.0;
  options.reconnect_backoff_seconds = 0.01;
  return options;
}

// An injected connection reset mid-collective: both ranks classify the
// failure transient, rebuild the mesh at the same generation, replay the
// same sequence number from the payload snapshot — and the results of every
// round are bit-identical to the fault-free sim reference.
TEST(ProcessGroupTcpSupervisorTest, ResetMidCollectiveReconnectsAndReplays) {
  const int world = 2;
  const int64_t n = 96;
  WireFaultPlan plan;
  plan.ResetConnection(0, 1, /*at_op=*/1);  // bootstrap (op 0 stamp) clean

  std::vector<std::vector<std::vector<float>>> rounds;
  for (uint64_t r = 0; r < 3; ++r) {
    rounds.push_back(MakeInputs(world, n, 0x5e7 + r));
  }
  std::vector<std::vector<std::vector<float>>> reference = rounds;
  for (auto& round : reference) {
    std::vector<float*> pointers;
    for (auto& b : round) pointers.push_back(b.data());
    RunAllReduceRaw<float>(Algorithm::kRing, ReduceOp::kSum, pointers, n);
  }

  std::vector<uint64_t> reconnects(static_cast<size_t>(world), 0);
  std::vector<std::vector<std::vector<float>>> wire(
      rounds.size(),
      std::vector<std::vector<float>>(static_cast<size_t>(world)));
  RunChaosWorld(
      world, plan, SupervisedOptions(),
      [&](int rank, const Group& group, WireFaultInjector&) {
        for (size_t r = 0; r < rounds.size(); ++r) {
          Tensor tensor = FromVec(rounds[r][static_cast<size_t>(rank)]);
          WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
          ASSERT_TRUE(work->status().ok())
              << "rank " << rank << " round " << r << ": "
              << work->status().ToString();
          wire[r][static_cast<size_t>(rank)].assign(
              tensor.data<float>(), tensor.data<float>() + tensor.numel());
        }
        reconnects[static_cast<size_t>(rank)] = group->reconnects();
      });

  for (size_t r = 0; r < rounds.size(); ++r) {
    for (int rank = 0; rank < world; ++rank) {
      EXPECT_EQ(0, std::memcmp(reference[r][static_cast<size_t>(rank)].data(),
                               wire[r][static_cast<size_t>(rank)].data(),
                               static_cast<size_t>(n) * sizeof(float)))
          << "round " << r << " rank " << rank;
    }
  }
  // The rank whose send was reset re-meshed at least once; its peer saw the
  // EOF and joined the re-mesh (so it may or may not count its own).
  EXPECT_GE(reconnects[0] + reconnects[1], 1u);
}

// A two-way partition that heals after a bounded number of blackholed
// operations: the supervisor's reconnect attempts burn the heal budget
// deterministically, the mesh comes back, the interrupted collective
// replays, and the results stay bit-exact.
TEST(ProcessGroupTcpSupervisorTest, PartitionHealsViaReconnectBitExact) {
  const int world = 2;
  const int64_t n = 64;
  WireFaultPlan plan;
  plan.PartitionTwoWay(0, 1, /*from_op=*/1, /*heal_after_hits=*/2);
  plan.blackhole_cap_seconds = 0.02;

  std::vector<std::vector<std::vector<float>>> rounds;
  for (uint64_t r = 0; r < 2; ++r) {
    rounds.push_back(MakeInputs(world, n, 0x8ea1 + r));
  }
  std::vector<std::vector<std::vector<float>>> reference = rounds;
  for (auto& round : reference) {
    std::vector<float*> pointers;
    for (auto& b : round) pointers.push_back(b.data());
    RunAllReduceRaw<float>(Algorithm::kRing, ReduceOp::kSum, pointers, n);
  }

  std::vector<uint64_t> reconnects(static_cast<size_t>(world), 0);
  std::vector<std::vector<std::vector<float>>> wire(
      rounds.size(),
      std::vector<std::vector<float>>(static_cast<size_t>(world)));
  RunChaosWorld(
      world, plan, SupervisedOptions(),
      [&](int rank, const Group& group, WireFaultInjector&) {
        for (size_t r = 0; r < rounds.size(); ++r) {
          Tensor tensor = FromVec(rounds[r][static_cast<size_t>(rank)]);
          WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
          ASSERT_TRUE(work->status().ok())
              << "rank " << rank << " round " << r << ": "
              << work->status().ToString();
          wire[r][static_cast<size_t>(rank)].assign(
              tensor.data<float>(), tensor.data<float>() + tensor.numel());
        }
        reconnects[static_cast<size_t>(rank)] = group->reconnects();
      });

  for (size_t r = 0; r < rounds.size(); ++r) {
    for (int rank = 0; rank < world; ++rank) {
      EXPECT_EQ(0, std::memcmp(reference[r][static_cast<size_t>(rank)].data(),
                               wire[r][static_cast<size_t>(rank)].data(),
                               static_cast<size_t>(n) * sizeof(float)))
          << "round " << r << " rank " << rank;
    }
  }
  EXPECT_GE(reconnects[0] + reconnects[1], 1u);
}

// A partition that never heals: the reconnect budget exhausts, the failure
// surfaces typed (timeout or rank-failure, never a hang), and the group is
// poisoned — exactly the signal DDP::Recover regroups on.
TEST(ProcessGroupTcpSupervisorTest, PersistentPartitionExhaustsThenPoisons) {
  const int world = 2;
  WireFaultPlan plan;
  plan.PartitionTwoWay(0, 1, /*from_op=*/1);  // heal_after_hits 0: forever
  plan.blackhole_cap_seconds = 0.01;

  ProcessGroupTcp::Options options = SupervisedOptions();
  options.collective_timeout_seconds = 2.0;
  options.max_reconnect_attempts = 2;
  options.reconnect_timeout_seconds = 0.2;

  RunChaosWorld(
      world, plan, options,
      [&](int rank, const Group& group, WireFaultInjector&) {
        Tensor warm = Tensor::Ones({8});
        WorkHandle ok = group->AllReduce(warm, ReduceOp::kSum);
        ASSERT_TRUE(ok->status().ok())
            << "rank " << rank << ": " << ok->status().ToString();

        Tensor tensor = Tensor::Ones({8});
        WorkHandle work = group->AllReduce(tensor, ReduceOp::kSum);
        EXPECT_FALSE(work->status().ok()) << "rank " << rank;
        EXPECT_TRUE(work->status().code() == StatusCode::kTimedOut ||
                    work->status().code() == StatusCode::kInternal)
            << "rank " << rank << ": " << work->status().ToString();

        WorkHandle after = group->AllReduce(tensor, ReduceOp::kSum);
        EXPECT_EQ(StatusCode::kInternal, after->status().code())
            << "poisoned group must fail fast on rank " << rank << ", got: "
            << after->status().ToString();
        EXPECT_GE(group->reconnects(), 0u);  // attempts were made, all vain
      });
}

// One-way partition under heartbeat probing: the starved side (and only
// the starved side) records misses — the detector's view is asymmetric,
// exactly like an asymmetric route failure.
TEST(ProcessGroupTcpSupervisorTest, HeartbeatMissesAreAsymmetric) {
  const int world = 2;
  WireFaultPlan plan;
  plan.PartitionOneWay(0, 1, /*from_op=*/1);  // rank 0's pings vanish
  plan.blackhole_cap_seconds = 0.01;

  ProcessGroupTcp::Options options;  // unsupervised: detector only
  options.heartbeat_interval_seconds = 0.04;
  options.heartbeat_miss_intervals = 3;

  std::vector<uint64_t> misses(static_cast<size_t>(world), 0);
  RunChaosWorld(
      world, plan, options,
      [&](int rank, const Group& group, WireFaultInjector& injector) {
        // Activate the partition after bootstrap (the stamp a collective
        // at seq 1 would apply).
        injector.set_op_index(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        misses[static_cast<size_t>(rank)] = group->heartbeat_misses();
      });
  EXPECT_EQ(misses[0], 0u) << "rank 0 still hears rank 1's pings";
  EXPECT_GE(misses[1], 1u) << "rank 1 must notice rank 0 went silent";
}

}  // namespace
}  // namespace ddpkit::comm
