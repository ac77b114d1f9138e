// Golden modeled times for the communication cost models.
//
// Three sweeps hash (FNV-1a-64) the IEEE-754 bits of modeled seconds and
// compare against pinned values, so any change to a formula, to the order
// of its floating-point operations, or to the parameters a caller feeds it
// flips some bit and with it the hash:
//
//  1. Every CommCostModel entry point (ring AllReduce, the
//     algorithm-aware AllReduce at every CollectiveAlgorithm, Broadcast,
//     AllGather, Barrier) for NCCL, Gloo, MPI and NCCL with degraded links
//     above world 128, on the default topology and on 4 GPUs per host,
//     over a grid of worlds, byte counts and concurrent-group counts.
//  2. Work::completion_time() of every ProcessGroupSim collective at world
//     4 under each backend, for the ring and kAuto algorithms and under a
//     round-robin pair of groups.
//  3. ClusterSim::Run(20) iteration latencies for ResNet50 at world 32
//     under each backend, alone and round-robin over 3 groups. Jitter is
//     off, so the hash sees the cost model, the bucketing and the comm
//     queues only.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "comm/sim_world.h"
#include "sim/comm_cost_model.h"

namespace ddpkit {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t HashDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fnv1a(hash, &bits, sizeof(bits));
}

// ---- Sweep 1: the cost-model entry points -----------------------------------

struct ModelCase {
  const char* name;
  sim::Backend backend;
  int degraded_above_world = 0;
};

const ModelCase kModels[] = {
    {"nccl", sim::Backend::kNccl},
    {"gloo", sim::Backend::kGloo},
    {"mpi", sim::Backend::kMpi},
    {"nccl_degraded128", sim::Backend::kNccl, 128},
};

std::unique_ptr<sim::CommCostModel> MakeModel(const ModelCase& c,
                                              const sim::Topology& topology) {
  if (c.degraded_above_world > 0) {
    sim::NcclCostModel::Options options;
    options.degraded_above_world = c.degraded_above_world;
    return std::make_unique<sim::NcclCostModel>(topology, options);
  }
  return sim::MakeCostModel(c.backend, topology);
}

const sim::CollectiveAlgorithm kAlgorithms[] = {
    sim::CollectiveAlgorithm::kNaive,
    sim::CollectiveAlgorithm::kRing,
    sim::CollectiveAlgorithm::kTree,
    sim::CollectiveAlgorithm::kRingChunked,
    sim::CollectiveAlgorithm::kHalvingDoubling,
    sim::CollectiveAlgorithm::kHierarchical,
    sim::CollectiveAlgorithm::kAuto,
};

const int kWorlds[] = {1, 2, 3, 4, 5, 8, 9, 16, 32, 128, 256};
const size_t kBytes[] = {0,         1,       4096,          (256 << 10) - 1,
                         256 << 10, 1 << 20, (1 << 20) + 1, 25 << 20};
const int kGroups[] = {1, 3};

/// One hash per (model, topology, entry point), each over the whole grid.
std::map<std::string, uint64_t> ComputeCostModelSweep() {
  sim::Topology::Options four_per_host;
  four_per_host.gpus_per_host = 4;
  const std::pair<const char*, sim::Topology> topologies[] = {
      {"default", sim::Topology()},
      {"gph4", sim::Topology(four_per_host)},
  };
  std::map<std::string, uint64_t> out;
  for (const ModelCase& c : kModels) {
    for (const auto& [topo_name, topology] : topologies) {
      const auto model = MakeModel(c, topology);
      const std::string prefix = std::string(c.name) + "/" + topo_name + "/";
      auto entry = [&](const std::string& name) -> uint64_t& {
        return out.try_emplace(prefix + name, kFnvOffset).first->second;
      };
      for (int world : kWorlds) {
        for (size_t bytes : kBytes) {
          for (int groups : kGroups) {
            uint64_t& ring = entry("allreduce");
            ring = HashDouble(ring,
                              model->AllReduceSeconds(bytes, world, groups));
            for (sim::CollectiveAlgorithm algo : kAlgorithms) {
              uint64_t& h = entry(std::string("allreduce_") +
                                  sim::CollectiveAlgorithmName(algo));
              h = HashDouble(
                  h, model->AllReduceSeconds(bytes, world, groups, algo));
            }
          }
          uint64_t& broadcast = entry("broadcast");
          broadcast =
              HashDouble(broadcast, model->BroadcastSeconds(bytes, world));
          uint64_t& all_gather = entry("all_gather");
          all_gather =
              HashDouble(all_gather, model->AllGatherSeconds(bytes, world));
        }
        uint64_t& barrier = entry("barrier");
        barrier = HashDouble(barrier, model->BarrierSeconds(world));
      }
    }
  }
  return out;
}

// ---- Sweep 2: ProcessGroupSim completion times ------------------------------

struct GroupCase {
  const char* name;
  sim::Backend backend;
  comm::Algorithm algorithm = comm::Algorithm::kRing;
  int round_robin_groups = 1;
};

const GroupCase kGroupCases[] = {
    {"nccl", sim::Backend::kNccl},
    {"gloo", sim::Backend::kGloo},
    {"mpi", sim::Backend::kMpi},
    {"nccl_auto", sim::Backend::kNccl, comm::Algorithm::kAuto},
    {"gloo_auto", sim::Backend::kGloo, comm::Algorithm::kAuto},
    {"mpi_auto", sim::Backend::kMpi, comm::Algorithm::kAuto},
    {"nccl_rr2", sim::Backend::kNccl, comm::Algorithm::kRing, 2},
    {"gloo_rr2", sim::Backend::kGloo, comm::Algorithm::kRing, 2},
    {"mpi_rr2", sim::Backend::kMpi, comm::Algorithm::kRing, 2},
};

/// Each rank arrives slightly later than the previous one, issues every
/// collective without waiting (so they queue behind each other), then
/// waits them in order; the hash covers every completion time and the
/// clock after a final Barrier, rank by rank.
uint64_t RunGroupCase(const GroupCase& c) {
  constexpr int kWorld = 4;
  comm::SimWorldOptions options;
  options.backend = c.backend;
  options.algorithm = c.algorithm;
  options.round_robin_groups = c.round_robin_groups;
  std::vector<uint64_t> rank_hash(kWorld, 0);
  comm::SimWorld::Run(kWorld, options, [&](comm::SimWorld::RankContext& ctx) {
    ctx.clock->Advance(1e-6 * ctx.rank);
    comm::ProcessGroup& pg = *ctx.process_group;
    std::vector<comm::WorkHandle> works;
    for (int64_t n : {1, 1000, 70000, 300000}) {
      works.push_back(pg.AllReduce(Tensor::Full({n}, 1.0)));
    }
    works.push_back(pg.Broadcast(Tensor::Full({5000}, 1.0), 1));
    works.push_back(
        pg.Reduce(Tensor::Full({5000}, 1.0), 2, comm::ReduceOp::kSum));
    works.push_back(pg.AllGather(Tensor::Full({3000}, 1.0),
                                 Tensor::Zeros({3000 * kWorld})));
    works.push_back(pg.ReduceScatter(Tensor::Full({4000 * kWorld}, 1.0),
                                     Tensor::Zeros({4000}),
                                     comm::ReduceOp::kSum));
    works.push_back(pg.Gather(Tensor::Full({2000}, 1.0),
                              ctx.rank == 3 ? Tensor::Zeros({2000 * kWorld})
                                            : Tensor(),
                              3));
    uint64_t hash = kFnvOffset;
    for (const comm::WorkHandle& work : works) {
      const Status status = work->Wait(ctx.clock, 0.0);
      ASSERT_TRUE(status.ok()) << status.ToString();
      hash = HashDouble(hash, work->completion_time());
    }
    pg.Barrier();
    hash = HashDouble(hash, ctx.clock->Now());
    rank_hash[static_cast<size_t>(ctx.rank)] = hash;
  });
  uint64_t hash = kFnvOffset;
  for (uint64_t h : rank_hash) hash = Fnv1a(hash, &h, sizeof(h));
  return hash;
}

std::map<std::string, uint64_t> ComputeProcessGroupSweep() {
  std::map<std::string, uint64_t> out;
  for (const GroupCase& c : kGroupCases) out[c.name] = RunGroupCase(c);
  return out;
}

// ---- Sweep 3: ClusterSim iteration latencies --------------------------------

std::map<std::string, uint64_t> ComputeClusterSweep() {
  const std::pair<const char*, sim::Backend> backends[] = {
      {"nccl", sim::Backend::kNccl},
      {"gloo", sim::Backend::kGloo},
      {"mpi", sim::Backend::kMpi},
  };
  std::map<std::string, uint64_t> out;
  for (const auto& [name, backend] : backends) {
    for (int rr : {1, 3}) {
      cluster::ClusterConfig config;
      config.world = 32;
      config.backend = backend;
      config.round_robin_groups = rr;
      config.straggler.sigma = 0.0;
      config.compute.op_jitter_sigma = 0.0;
      const cluster::SimResult result =
          cluster::ClusterSim(cluster::ResNet50Spec(), config).Run(20);
      uint64_t hash = kFnvOffset;
      for (double latency : result.iteration_latencies) {
        hash = HashDouble(hash, latency);
      }
      out[std::string(name) + "/rr" + std::to_string(rr)] = hash;
    }
  }
  return out;
}

// ---- Pinned tables ----------------------------------------------------------

struct Golden {
  const char* key;
  uint64_t hash;
};

// clang-format off
const Golden kCostModelGolden[] = {
    {"gloo/default/all_gather", 0xa3cf307de29d3c06ull},
    {"gloo/default/allreduce", 0xbea09ebd206247ecull},
    {"gloo/default/allreduce_auto", 0x3a0ce3fdd0bb2943ull},
    {"gloo/default/allreduce_halving_doubling", 0x727930b1a0206958ull},
    {"gloo/default/allreduce_hierarchical", 0xdae4ada9faaabd1bull},
    {"gloo/default/allreduce_naive", 0x23da19ec31a7e71full},
    {"gloo/default/allreduce_ring", 0xbea09ebd206247ecull},
    {"gloo/default/allreduce_ring_chunked", 0x9d4b461dfdce0a1aull},
    {"gloo/default/allreduce_tree", 0xbea09ebd206247ecull},
    {"gloo/default/barrier", 0x7d6762ec17811019ull},
    {"gloo/default/broadcast", 0x6640345981ef46e7ull},
    {"gloo/gph4/all_gather", 0x4af36ab4045ad3f3ull},
    {"gloo/gph4/allreduce", 0x698ea055639c9842ull},
    {"gloo/gph4/allreduce_auto", 0xdc19ef1f291358a7ull},
    {"gloo/gph4/allreduce_halving_doubling", 0x398f60d6c7feb8abull},
    {"gloo/gph4/allreduce_hierarchical", 0x392f2f4b133653bbull},
    {"gloo/gph4/allreduce_naive", 0xdce7f35cfe804c89ull},
    {"gloo/gph4/allreduce_ring", 0x698ea055639c9842ull},
    {"gloo/gph4/allreduce_ring_chunked", 0x842a3d16f8ca2447ull},
    {"gloo/gph4/allreduce_tree", 0x698ea055639c9842ull},
    {"gloo/gph4/barrier", 0x8daa252a7dd7cf3dull},
    {"gloo/gph4/broadcast", 0x9c157eb1f3a438faull},
    {"mpi/default/all_gather", 0x5168a14993322f2bull},
    {"mpi/default/allreduce", 0x4530f4306023ed8bull},
    {"mpi/default/allreduce_auto", 0x1c669735f29fb9e2ull},
    {"mpi/default/allreduce_halving_doubling", 0xa683982592d00f80ull},
    {"mpi/default/allreduce_hierarchical", 0x46caafe544c8ae0dull},
    {"mpi/default/allreduce_naive", 0xd2128da35d943293ull},
    {"mpi/default/allreduce_ring", 0x4530f4306023ed8bull},
    {"mpi/default/allreduce_ring_chunked", 0xc0eeef07791ff72bull},
    {"mpi/default/allreduce_tree", 0x4530f4306023ed8bull},
    {"mpi/default/barrier", 0x4a4d02db77d56af0ull},
    {"mpi/default/broadcast", 0x4342c299ae110942ull},
    {"mpi/gph4/all_gather", 0xaa9f20cb6238b0b5ull},
    {"mpi/gph4/allreduce", 0xc7f97341134cd77aull},
    {"mpi/gph4/allreduce_auto", 0x04a3df01c8b63012ull},
    {"mpi/gph4/allreduce_halving_doubling", 0xcbf541616e604da7ull},
    {"mpi/gph4/allreduce_hierarchical", 0x362cde98af0e65bbull},
    {"mpi/gph4/allreduce_naive", 0x572e3409136759fbull},
    {"mpi/gph4/allreduce_ring", 0xc7f97341134cd77aull},
    {"mpi/gph4/allreduce_ring_chunked", 0x9d1f787a10cb4df2ull},
    {"mpi/gph4/allreduce_tree", 0xc7f97341134cd77aull},
    {"mpi/gph4/barrier", 0x6b833357455af780ull},
    {"mpi/gph4/broadcast", 0x8984f221eb3be046ull},
    {"nccl/default/all_gather", 0x1c97fe730c4abdcdull},
    {"nccl/default/allreduce", 0x67ea5002da6b4578ull},
    {"nccl/default/allreduce_auto", 0xfce8326e47f9593eull},
    {"nccl/default/allreduce_halving_doubling", 0x4ab693f8dbf7574eull},
    {"nccl/default/allreduce_hierarchical", 0xa7e4ed668a407225ull},
    {"nccl/default/allreduce_naive", 0x6c4830da54a94f25ull},
    {"nccl/default/allreduce_ring", 0x67ea5002da6b4578ull},
    {"nccl/default/allreduce_ring_chunked", 0x493fae0265c61b5cull},
    {"nccl/default/allreduce_tree", 0x67ea5002da6b4578ull},
    {"nccl/default/barrier", 0xe2fa5c138ac5884aull},
    {"nccl/default/broadcast", 0xe4fc24148472de6bull},
    {"nccl/gph4/all_gather", 0x18cd32f16259cf0dull},
    {"nccl/gph4/allreduce", 0x5420eb6c1d12ab13ull},
    {"nccl/gph4/allreduce_auto", 0x00a844e3273d1625ull},
    {"nccl/gph4/allreduce_halving_doubling", 0x2b03aef0dd074d5cull},
    {"nccl/gph4/allreduce_hierarchical", 0xce8f5035d9b0f7f8ull},
    {"nccl/gph4/allreduce_naive", 0x05ca746e3802eeecull},
    {"nccl/gph4/allreduce_ring", 0x5420eb6c1d12ab13ull},
    {"nccl/gph4/allreduce_ring_chunked", 0xef5b323d8ef8de9eull},
    {"nccl/gph4/allreduce_tree", 0x5420eb6c1d12ab13ull},
    {"nccl/gph4/barrier", 0xf41234b2c93b87ceull},
    {"nccl/gph4/broadcast", 0x4472c77d0be71933ull},
    {"nccl_degraded128/default/all_gather", 0xc45e533ffd951257ull},
    {"nccl_degraded128/default/allreduce", 0x75296b8073842318ull},
    {"nccl_degraded128/default/allreduce_auto", 0x7376a4bdc8bcb44full},
    {"nccl_degraded128/default/allreduce_halving_doubling", 0xa0009a8f2cad39a6ull},
    {"nccl_degraded128/default/allreduce_hierarchical", 0x296ccd110b3262f5ull},
    {"nccl_degraded128/default/allreduce_naive", 0x29ac8eb6cf2e3e4dull},
    {"nccl_degraded128/default/allreduce_ring", 0x75296b8073842318ull},
    {"nccl_degraded128/default/allreduce_ring_chunked", 0x01f2e78aa5fe4310ull},
    {"nccl_degraded128/default/allreduce_tree", 0x75296b8073842318ull},
    {"nccl_degraded128/default/barrier", 0xe2fa5c138ac5884aull},
    {"nccl_degraded128/default/broadcast", 0xe99750dca8664fc7ull},
    {"nccl_degraded128/gph4/all_gather", 0x6e4ea16b779e7597ull},
    {"nccl_degraded128/gph4/allreduce", 0x404b32c98cdc90abull},
    {"nccl_degraded128/gph4/allreduce_auto", 0x68e7bd51db4e68cfull},
    {"nccl_degraded128/gph4/allreduce_halving_doubling", 0xd8f9fc299ecd4e1cull},
    {"nccl_degraded128/gph4/allreduce_hierarchical", 0x6b4952c2ec94d0acull},
    {"nccl_degraded128/gph4/allreduce_naive", 0x552bf2d268904c4cull},
    {"nccl_degraded128/gph4/allreduce_ring", 0x404b32c98cdc90abull},
    {"nccl_degraded128/gph4/allreduce_ring_chunked", 0x8ef56274ba04466aull},
    {"nccl_degraded128/gph4/allreduce_tree", 0x404b32c98cdc90abull},
    {"nccl_degraded128/gph4/barrier", 0xf41234b2c93b87ceull},
    {"nccl_degraded128/gph4/broadcast", 0x86042b6c493cd26full},
};

const Golden kProcessGroupGolden[] = {
    {"gloo", 0x87a1cb56cb1c3b05ull},
    {"gloo_auto", 0x320ca2a28cacfed5ull},
    {"gloo_rr2", 0x2308b1a544bf721dull},
    {"mpi", 0xd50ca2c15c1d9655ull},
    {"mpi_auto", 0x8ecbcc20c505dad5ull},
    {"mpi_rr2", 0xd9b825a7258d33fdull},
    {"nccl", 0xb297c4476723751dull},
    {"nccl_auto", 0x96fab10ca3d0cb05ull},
    {"nccl_rr2", 0xbaabcb260f8cf4b5ull},
};

const Golden kClusterGolden[] = {
    {"gloo/rr1", 0x1f736dde1ae0cef5ull},
    {"gloo/rr3", 0x5d72d3cfb6ad9205ull},
    {"mpi/rr1", 0xfd818d9fbd9ab2d5ull},
    {"mpi/rr3", 0xd9cae5123658a30dull},
    {"nccl/rr1", 0xff85279e020a8885ull},
    {"nccl/rr3", 0x701a1a719015b3fdull},
};
// clang-format on

template <size_t N>
void ExpectMatchesGolden(const std::map<std::string, uint64_t>& got,
                         const Golden (&table)[N]) {
  EXPECT_EQ(N, got.size()) << "golden table and computed cases differ";
  for (const Golden& g : table) {
    auto it = got.find(g.key);
    ASSERT_NE(it, got.end()) << "no case computed for " << g.key;
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  static_cast<unsigned long long>(it->second));
    EXPECT_EQ(g.hash, it->second) << g.key << " now hashes to " << actual;
  }
}

TEST(SimCostModelGoldenTest, EntryPointsPinned) {
  ExpectMatchesGolden(ComputeCostModelSweep(), kCostModelGolden);
}

TEST(SimCostModelGoldenTest, ProcessGroupCompletionTimesPinned) {
  ExpectMatchesGolden(ComputeProcessGroupSweep(), kProcessGroupGolden);
}

TEST(SimCostModelGoldenTest, ClusterLatenciesPinned) {
  ExpectMatchesGolden(ComputeClusterSweep(), kClusterGolden);
}

}  // namespace
}  // namespace ddpkit
