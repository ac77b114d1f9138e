// Golden combine orders for the in-memory collective data plane.
//
// Every case hashes (FNV-1a-64) the output bytes of every rank, in rank
// order, and compares against a pinned value. Float sums are not
// associative, so any change to chunking or to the per-element combine
// order flips some last bit and with it the hash. The TCP backend's
// bit-exactness tests compare against this same data plane, so once both
// backends execute one program, this table is what tells a changed
// combine order apart from a correct one.
//
// Cases: every all-reduce algorithm (hierarchical at 2 and 3 ranks per
// node, plus kAuto on the default topology) x world {2,3,4,5,7,8} x n
// {1,63,4097} x {float sum, float max, double sum, int64 sum}; plus fp16
// sum, Reduce, ReduceScatter and AllGather over the same worlds and sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "comm/algorithms.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"
#include "tests/wait_ok.h"

namespace ddpkit::comm {
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

const int kWorlds[] = {2, 3, 4, 5, 7, 8};
const int64_t kSizes[] = {1, 63, 4097};

uint64_t Seed(int world, int64_t n, uint64_t salt) {
  return salt * 1000003ull + static_cast<uint64_t>(world) * 10007ull +
         static_cast<uint64_t>(n);
}

template <typename T>
std::vector<std::vector<T>> MakeInputs(int world, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<T>> bufs(static_cast<size_t>(world));
  for (auto& b : bufs) {
    b.resize(static_cast<size_t>(n));
    for (auto& x : b) {
      if constexpr (std::is_integral_v<T>) {
        x = static_cast<T>(rng.UniformInt(2000)) - 1000;
      } else {
        x = static_cast<T>(rng.Uniform(-2.0, 2.0));
      }
    }
  }
  return bufs;
}

template <typename T>
uint64_t HashRaw(Algorithm algorithm, ReduceOp op, int world, int64_t n,
                 int ranks_per_node, uint64_t seed) {
  auto bufs = MakeInputs<T>(world, n, seed);
  std::vector<T*> pointers;
  for (auto& b : bufs) pointers.push_back(b.data());
  RunAllReduceRaw<T>(algorithm, op, pointers, n, ranks_per_node);
  uint64_t hash = kFnvOffset;
  for (const auto& b : bufs) {
    hash = Fnv1a(hash, b.data(), b.size() * sizeof(T));
  }
  return hash;
}

uint64_t HashTensors(const std::vector<Tensor>& tensors) {
  uint64_t hash = kFnvOffset;
  for (const Tensor& t : tensors) {
    hash = Fnv1a(hash, const_cast<Tensor&>(t).data<uint8_t>(),
                 static_cast<size_t>(t.nbytes()));
  }
  return hash;
}

std::vector<Tensor> FloatTensors(int world, int64_t numel, uint64_t seed) {
  std::vector<Tensor> tensors;
  for (const auto& values : MakeInputs<float>(world, numel, seed)) {
    tensors.push_back(Tensor::FromVector(values, {numel}));
  }
  return tensors;
}

std::string Key(const std::string& what, int world, int64_t n) {
  return what + "/w" + std::to_string(world) + "/n" + std::to_string(n);
}

struct Variant {
  const char* name;
  Algorithm algorithm;
  int ranks_per_node;
};

const Variant kVariants[] = {
    {"naive", Algorithm::kNaive, 0},
    {"ring", Algorithm::kRing, 0},
    {"tree", Algorithm::kTree, 0},
    {"ring_chunked", Algorithm::kRingChunked, 0},
    {"halving_doubling", Algorithm::kHalvingDoubling, 0},
    {"hierarchical_rpn2", Algorithm::kHierarchical, 2},
    {"hierarchical_rpn3", Algorithm::kHierarchical, 3},
    {"auto", Algorithm::kAuto, 0},
};

std::map<std::string, uint64_t> ComputeAllReduceZoo() {
  std::map<std::string, uint64_t> out;
  for (const Variant& v : kVariants) {
    for (int world : kWorlds) {
      for (int64_t n : kSizes) {
        const std::string base = std::string(v.name) + "/";
        out[Key(base + "f32_sum", world, n)] =
            HashRaw<float>(v.algorithm, ReduceOp::kSum, world, n,
                           v.ranks_per_node, Seed(world, n, 1));
        out[Key(base + "f32_max", world, n)] =
            HashRaw<float>(v.algorithm, ReduceOp::kMax, world, n,
                           v.ranks_per_node, Seed(world, n, 2));
        out[Key(base + "f64_sum", world, n)] =
            HashRaw<double>(v.algorithm, ReduceOp::kSum, world, n,
                            v.ranks_per_node, Seed(world, n, 3));
        out[Key(base + "i64_sum", world, n)] =
            HashRaw<int64_t>(v.algorithm, ReduceOp::kSum, world, n,
                             v.ranks_per_node, Seed(world, n, 4));
      }
    }
  }
  return out;
}

std::map<std::string, uint64_t> ComputeOtherCollectives() {
  std::map<std::string, uint64_t> out;
  for (int world : kWorlds) {
    for (int64_t n : kSizes) {
      // fp16 sum: fp32 accumulation in rank order, stored back as half.
      {
        std::vector<Tensor> tensors;
        for (const auto& values :
             MakeInputs<float>(world, n, Seed(world, n, 5))) {
          Tensor t = Tensor::Zeros({n}, DType::kFloat16);
          for (int64_t i = 0; i < n; ++i) {
            t.data<uint16_t>()[i] =
                Float32ToHalfBits(values[static_cast<size_t>(i)]);
          }
          tensors.push_back(t);
        }
        RunAllReduce(Algorithm::kRing, ReduceOp::kSum, tensors);
        out[Key("fp16_sum", world, n)] = HashTensors(tensors);
      }
      // Reduce to a non-zero root, through the simulated process group.
      {
        const int root = world / 2;
        std::vector<Tensor> tensors =
            FloatTensors(world, n, Seed(world, n, 6));
        SimWorld::Run(world, [&](SimWorld::RankContext& ctx) {
          WorkHandle work = ctx.process_group->Reduce(
              tensors[static_cast<size_t>(ctx.rank)], root, ReduceOp::kSum);
          EXPECT_WAIT_OK(work, ctx.clock);
        });
        out[Key("reduce_f32_sum", world, n)] = HashTensors(tensors);
      }
      // ReduceScatter: every rank contributes world * n, keeps n.
      {
        std::vector<Tensor> inputs =
            FloatTensors(world, world * n, Seed(world, n, 7));
        std::vector<Tensor> outputs;
        for (int r = 0; r < world; ++r) outputs.push_back(Tensor::Zeros({n}));
        RunReduceScatter(ReduceOp::kSum, inputs, outputs);
        out[Key("reduce_scatter_f32_sum", world, n)] = HashTensors(outputs);
      }
      // AllGather: rank-order concatenation everywhere.
      {
        std::vector<Tensor> inputs = FloatTensors(world, n, Seed(world, n, 8));
        std::vector<Tensor> outputs;
        for (int r = 0; r < world; ++r) {
          outputs.push_back(Tensor::Zeros({world * n}));
        }
        RunAllGather(inputs, outputs);
        out[Key("all_gather_f32", world, n)] = HashTensors(outputs);
      }
    }
  }
  return out;
}

struct Golden {
  const char* key;
  uint64_t hash;
};

// clang-format off
const Golden kZooGolden[] = {
    {"auto/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"auto/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"auto/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"auto/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"auto/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"auto/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"auto/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"auto/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"auto/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"auto/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"auto/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"auto/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"auto/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"auto/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"auto/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"auto/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"auto/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"auto/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"auto/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"auto/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"auto/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"auto/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"auto/f32_sum/w3/n4097", 0x04eb7ceb62c0be82ull},
    {"auto/f32_sum/w3/n63", 0xbf295ec7ebc3df5dull},
    {"auto/f32_sum/w4/n1", 0x61c92e6753b1b205ull},
    {"auto/f32_sum/w4/n4097", 0x39787b4bda120845ull},
    {"auto/f32_sum/w4/n63", 0xdb9e7b1c01944525ull},
    {"auto/f32_sum/w5/n1", 0xc3e2cb788a9703a1ull},
    {"auto/f32_sum/w5/n4097", 0xf19431ff6fabedc7ull},
    {"auto/f32_sum/w5/n63", 0xf8900335910e5814ull},
    {"auto/f32_sum/w7/n1", 0xc7c045c90ee4483eull},
    {"auto/f32_sum/w7/n4097", 0x3cacc962667932f1ull},
    {"auto/f32_sum/w7/n63", 0x719d08f1b940e773ull},
    {"auto/f32_sum/w8/n1", 0x123846fe16404595ull},
    {"auto/f32_sum/w8/n4097", 0x215b1ac4b8ccbee5ull},
    {"auto/f32_sum/w8/n63", 0xf721a612b7aa1595ull},
    {"auto/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"auto/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"auto/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"auto/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"auto/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"auto/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"auto/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"auto/f64_sum/w4/n4097", 0xd8a04ee28efc0aadull},
    {"auto/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"auto/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"auto/f64_sum/w5/n4097", 0x6e773eacfe866967ull},
    {"auto/f64_sum/w5/n63", 0xba7c75f8373d7811ull},
    {"auto/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"auto/f64_sum/w7/n4097", 0x4a83d143f1a92102ull},
    {"auto/f64_sum/w7/n63", 0x1604db5823350606ull},
    {"auto/f64_sum/w8/n1", 0x979dcfe41ae32ae5ull},
    {"auto/f64_sum/w8/n4097", 0xab61e4474f9a82e5ull},
    {"auto/f64_sum/w8/n63", 0x1a7471dc893c6935ull},
    {"auto/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"auto/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"auto/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"auto/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"auto/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"auto/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"auto/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"auto/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"auto/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"auto/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"auto/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"auto/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"auto/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"auto/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"auto/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"auto/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"auto/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"auto/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"halving_doubling/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"halving_doubling/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"halving_doubling/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"halving_doubling/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"halving_doubling/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"halving_doubling/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"halving_doubling/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"halving_doubling/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"halving_doubling/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"halving_doubling/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"halving_doubling/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"halving_doubling/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"halving_doubling/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"halving_doubling/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"halving_doubling/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"halving_doubling/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"halving_doubling/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"halving_doubling/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"halving_doubling/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"halving_doubling/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"halving_doubling/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"halving_doubling/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"halving_doubling/f32_sum/w3/n4097", 0x04eb7ceb62c0be82ull},
    {"halving_doubling/f32_sum/w3/n63", 0xbf295ec7ebc3df5dull},
    {"halving_doubling/f32_sum/w4/n1", 0x61c92e6753b1b205ull},
    {"halving_doubling/f32_sum/w4/n4097", 0x39787b4bda120845ull},
    {"halving_doubling/f32_sum/w4/n63", 0xdb9e7b1c01944525ull},
    {"halving_doubling/f32_sum/w5/n1", 0xc3e2cb788a9703a1ull},
    {"halving_doubling/f32_sum/w5/n4097", 0xf19431ff6fabedc7ull},
    {"halving_doubling/f32_sum/w5/n63", 0xf8900335910e5814ull},
    {"halving_doubling/f32_sum/w7/n1", 0xc7c045c90ee4483eull},
    {"halving_doubling/f32_sum/w7/n4097", 0x3cacc962667932f1ull},
    {"halving_doubling/f32_sum/w7/n63", 0x719d08f1b940e773ull},
    {"halving_doubling/f32_sum/w8/n1", 0x123846fe16404595ull},
    {"halving_doubling/f32_sum/w8/n4097", 0x215b1ac4b8ccbee5ull},
    {"halving_doubling/f32_sum/w8/n63", 0xf721a612b7aa1595ull},
    {"halving_doubling/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"halving_doubling/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"halving_doubling/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"halving_doubling/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"halving_doubling/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"halving_doubling/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"halving_doubling/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"halving_doubling/f64_sum/w4/n4097", 0xd8a04ee28efc0aadull},
    {"halving_doubling/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"halving_doubling/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"halving_doubling/f64_sum/w5/n4097", 0x6e773eacfe866967ull},
    {"halving_doubling/f64_sum/w5/n63", 0xba7c75f8373d7811ull},
    {"halving_doubling/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"halving_doubling/f64_sum/w7/n4097", 0x4a83d143f1a92102ull},
    {"halving_doubling/f64_sum/w7/n63", 0x1604db5823350606ull},
    {"halving_doubling/f64_sum/w8/n1", 0x979dcfe41ae32ae5ull},
    {"halving_doubling/f64_sum/w8/n4097", 0xab61e4474f9a82e5ull},
    {"halving_doubling/f64_sum/w8/n63", 0x1a7471dc893c6935ull},
    {"halving_doubling/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"halving_doubling/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"halving_doubling/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"halving_doubling/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"halving_doubling/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"halving_doubling/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"halving_doubling/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"halving_doubling/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"halving_doubling/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"halving_doubling/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"halving_doubling/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"halving_doubling/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"halving_doubling/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"halving_doubling/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"halving_doubling/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"halving_doubling/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"halving_doubling/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"halving_doubling/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"hierarchical_rpn2/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"hierarchical_rpn2/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"hierarchical_rpn2/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"hierarchical_rpn2/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"hierarchical_rpn2/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"hierarchical_rpn2/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"hierarchical_rpn2/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"hierarchical_rpn2/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"hierarchical_rpn2/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"hierarchical_rpn2/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"hierarchical_rpn2/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"hierarchical_rpn2/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"hierarchical_rpn2/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"hierarchical_rpn2/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"hierarchical_rpn2/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"hierarchical_rpn2/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"hierarchical_rpn2/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"hierarchical_rpn2/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"hierarchical_rpn2/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"hierarchical_rpn2/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"hierarchical_rpn2/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"hierarchical_rpn2/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"hierarchical_rpn2/f32_sum/w3/n4097", 0x04eb7ceb62c0be82ull},
    {"hierarchical_rpn2/f32_sum/w3/n63", 0xbf295ec7ebc3df5dull},
    {"hierarchical_rpn2/f32_sum/w4/n1", 0xfc8d2b80f61b0ab5ull},
    {"hierarchical_rpn2/f32_sum/w4/n4097", 0xf9e43bfde4cafea5ull},
    {"hierarchical_rpn2/f32_sum/w4/n63", 0x821d52d307dfceedull},
    {"hierarchical_rpn2/f32_sum/w5/n1", 0x88d9dbd92a06db01ull},
    {"hierarchical_rpn2/f32_sum/w5/n4097", 0x92dbc61282486ce3ull},
    {"hierarchical_rpn2/f32_sum/w5/n63", 0x908f2b7fec661460ull},
    {"hierarchical_rpn2/f32_sum/w7/n1", 0x232f79ca4aced6ffull},
    {"hierarchical_rpn2/f32_sum/w7/n4097", 0x40e19babf66c52edull},
    {"hierarchical_rpn2/f32_sum/w7/n63", 0xe33a60072b23bc62ull},
    {"hierarchical_rpn2/f32_sum/w8/n1", 0x123846fe16404595ull},
    {"hierarchical_rpn2/f32_sum/w8/n4097", 0x430896d898102355ull},
    {"hierarchical_rpn2/f32_sum/w8/n63", 0x3a7902d7f72afff5ull},
    {"hierarchical_rpn2/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"hierarchical_rpn2/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"hierarchical_rpn2/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"hierarchical_rpn2/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"hierarchical_rpn2/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"hierarchical_rpn2/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"hierarchical_rpn2/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"hierarchical_rpn2/f64_sum/w4/n4097", 0xd8a04ee28efc0aadull},
    {"hierarchical_rpn2/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"hierarchical_rpn2/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"hierarchical_rpn2/f64_sum/w5/n4097", 0xbc6f000cb6e78fd4ull},
    {"hierarchical_rpn2/f64_sum/w5/n63", 0x0225e94807a5a76eull},
    {"hierarchical_rpn2/f64_sum/w7/n1", 0x0c0ea35f4b983466ull},
    {"hierarchical_rpn2/f64_sum/w7/n4097", 0x8c46e9cb3133671aull},
    {"hierarchical_rpn2/f64_sum/w7/n63", 0x9a302e517816371aull},
    {"hierarchical_rpn2/f64_sum/w8/n1", 0xe07928f9b24278b5ull},
    {"hierarchical_rpn2/f64_sum/w8/n4097", 0x4a724941a5667325ull},
    {"hierarchical_rpn2/f64_sum/w8/n63", 0xc6b1103bbccf8545ull},
    {"hierarchical_rpn2/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"hierarchical_rpn2/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"hierarchical_rpn2/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"hierarchical_rpn2/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"hierarchical_rpn2/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"hierarchical_rpn2/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"hierarchical_rpn2/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"hierarchical_rpn2/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"hierarchical_rpn2/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"hierarchical_rpn2/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"hierarchical_rpn2/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"hierarchical_rpn2/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"hierarchical_rpn2/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"hierarchical_rpn2/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"hierarchical_rpn2/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"hierarchical_rpn2/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"hierarchical_rpn2/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"hierarchical_rpn2/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"hierarchical_rpn3/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"hierarchical_rpn3/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"hierarchical_rpn3/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"hierarchical_rpn3/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"hierarchical_rpn3/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"hierarchical_rpn3/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"hierarchical_rpn3/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"hierarchical_rpn3/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"hierarchical_rpn3/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"hierarchical_rpn3/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"hierarchical_rpn3/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"hierarchical_rpn3/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"hierarchical_rpn3/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"hierarchical_rpn3/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"hierarchical_rpn3/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"hierarchical_rpn3/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"hierarchical_rpn3/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"hierarchical_rpn3/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"hierarchical_rpn3/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"hierarchical_rpn3/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"hierarchical_rpn3/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"hierarchical_rpn3/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"hierarchical_rpn3/f32_sum/w3/n4097", 0x04eb7ceb62c0be82ull},
    {"hierarchical_rpn3/f32_sum/w3/n63", 0xbf295ec7ebc3df5dull},
    {"hierarchical_rpn3/f32_sum/w4/n1", 0xfc8d2b80f61b0ab5ull},
    {"hierarchical_rpn3/f32_sum/w4/n4097", 0xe8bab91f209f0dbdull},
    {"hierarchical_rpn3/f32_sum/w4/n63", 0x435f8ee311931a25ull},
    {"hierarchical_rpn3/f32_sum/w5/n1", 0x88d9dbd92a06db01ull},
    {"hierarchical_rpn3/f32_sum/w5/n4097", 0x516f331a3580b126ull},
    {"hierarchical_rpn3/f32_sum/w5/n63", 0xdaf4ba9aafa70ff1ull},
    {"hierarchical_rpn3/f32_sum/w7/n1", 0xe89e1d2399f4e58dull},
    {"hierarchical_rpn3/f32_sum/w7/n4097", 0xc8060842db007f60ull},
    {"hierarchical_rpn3/f32_sum/w7/n63", 0x3e357e0b6e2fc4c3ull},
    {"hierarchical_rpn3/f32_sum/w8/n1", 0xaea46457b69e9a65ull},
    {"hierarchical_rpn3/f32_sum/w8/n4097", 0x303b940a8cf50e85ull},
    {"hierarchical_rpn3/f32_sum/w8/n63", 0xaeeacf393ab178f5ull},
    {"hierarchical_rpn3/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"hierarchical_rpn3/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"hierarchical_rpn3/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"hierarchical_rpn3/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"hierarchical_rpn3/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"hierarchical_rpn3/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"hierarchical_rpn3/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"hierarchical_rpn3/f64_sum/w4/n4097", 0x6deeb6bb79f80ebdull},
    {"hierarchical_rpn3/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"hierarchical_rpn3/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"hierarchical_rpn3/f64_sum/w5/n4097", 0xa64b6087e149be8eull},
    {"hierarchical_rpn3/f64_sum/w5/n63", 0xcf93cae1101b78f4ull},
    {"hierarchical_rpn3/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"hierarchical_rpn3/f64_sum/w7/n4097", 0xa5eb501fe0b63a74ull},
    {"hierarchical_rpn3/f64_sum/w7/n63", 0xa7f25c94d9231accull},
    {"hierarchical_rpn3/f64_sum/w8/n1", 0xe07928f9b24278b5ull},
    {"hierarchical_rpn3/f64_sum/w8/n4097", 0xdae2aa5d9efe6b45ull},
    {"hierarchical_rpn3/f64_sum/w8/n63", 0x0f1bca0deaf60e05ull},
    {"hierarchical_rpn3/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"hierarchical_rpn3/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"hierarchical_rpn3/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"hierarchical_rpn3/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"hierarchical_rpn3/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"hierarchical_rpn3/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"hierarchical_rpn3/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"hierarchical_rpn3/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"hierarchical_rpn3/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"hierarchical_rpn3/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"hierarchical_rpn3/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"hierarchical_rpn3/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"hierarchical_rpn3/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"hierarchical_rpn3/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"hierarchical_rpn3/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"hierarchical_rpn3/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"hierarchical_rpn3/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"hierarchical_rpn3/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"naive/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"naive/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"naive/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"naive/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"naive/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"naive/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"naive/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"naive/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"naive/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"naive/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"naive/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"naive/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"naive/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"naive/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"naive/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"naive/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"naive/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"naive/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"naive/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"naive/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"naive/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"naive/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"naive/f32_sum/w3/n4097", 0x04eb7ceb62c0be82ull},
    {"naive/f32_sum/w3/n63", 0xbf295ec7ebc3df5dull},
    {"naive/f32_sum/w4/n1", 0xfc8d2b80f61b0ab5ull},
    {"naive/f32_sum/w4/n4097", 0xe8bab91f209f0dbdull},
    {"naive/f32_sum/w4/n63", 0x435f8ee311931a25ull},
    {"naive/f32_sum/w5/n1", 0x88d9dbd92a06db01ull},
    {"naive/f32_sum/w5/n4097", 0xb172c09ff4ced766ull},
    {"naive/f32_sum/w5/n63", 0x470150c5f548aff1ull},
    {"naive/f32_sum/w7/n1", 0xe89e1d2399f4e58dull},
    {"naive/f32_sum/w7/n4097", 0x37d9f9fc2fcd715eull},
    {"naive/f32_sum/w7/n63", 0xae183928e649cb3eull},
    {"naive/f32_sum/w8/n1", 0xaea46457b69e9a65ull},
    {"naive/f32_sum/w8/n4097", 0x4d65f56e540236c5ull},
    {"naive/f32_sum/w8/n63", 0x8ee8d046909fae65ull},
    {"naive/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"naive/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"naive/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"naive/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"naive/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"naive/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"naive/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"naive/f64_sum/w4/n4097", 0x6deeb6bb79f80ebdull},
    {"naive/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"naive/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"naive/f64_sum/w5/n4097", 0x2b7624439fb4c143ull},
    {"naive/f64_sum/w5/n63", 0x4710afc177cb8a8bull},
    {"naive/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"naive/f64_sum/w7/n4097", 0xb6f11f8da858ac46ull},
    {"naive/f64_sum/w7/n63", 0x5528dda9580ad2f7ull},
    {"naive/f64_sum/w8/n1", 0xe07928f9b24278b5ull},
    {"naive/f64_sum/w8/n4097", 0x1841377e6ede7fe5ull},
    {"naive/f64_sum/w8/n63", 0x340a8fc427564035ull},
    {"naive/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"naive/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"naive/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"naive/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"naive/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"naive/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"naive/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"naive/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"naive/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"naive/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"naive/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"naive/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"naive/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"naive/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"naive/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"naive/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"naive/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"naive/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"ring/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"ring/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"ring/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"ring/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"ring/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"ring/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"ring/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"ring/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"ring/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"ring/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"ring/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"ring/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"ring/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"ring/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"ring/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"ring/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"ring/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"ring/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"ring/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"ring/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"ring/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"ring/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"ring/f32_sum/w3/n4097", 0x26b35a431809635cull},
    {"ring/f32_sum/w3/n63", 0x2b4f98f00e1d0416ull},
    {"ring/f32_sum/w4/n1", 0x61c92e6753b1b205ull},
    {"ring/f32_sum/w4/n4097", 0x9c6ed1d6cad005c5ull},
    {"ring/f32_sum/w4/n63", 0xff7051a93dbf7915ull},
    {"ring/f32_sum/w5/n1", 0x60c74fedd6316169ull},
    {"ring/f32_sum/w5/n4097", 0x7dd1523953b6fb8full},
    {"ring/f32_sum/w5/n63", 0x45861a2e5bcb194dull},
    {"ring/f32_sum/w7/n1", 0xe89e1d2399f4e58dull},
    {"ring/f32_sum/w7/n4097", 0x55063dafc05c4406ull},
    {"ring/f32_sum/w7/n63", 0x3328fda66522a6a1ull},
    {"ring/f32_sum/w8/n1", 0x123846fe16404595ull},
    {"ring/f32_sum/w8/n4097", 0x3abc23f35652ca75ull},
    {"ring/f32_sum/w8/n63", 0x1d82b262fc78c9a5ull},
    {"ring/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"ring/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"ring/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"ring/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"ring/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"ring/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"ring/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"ring/f64_sum/w4/n4097", 0x5848773cd52d76f5ull},
    {"ring/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"ring/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"ring/f64_sum/w5/n4097", 0xdb66de559be48db9ull},
    {"ring/f64_sum/w5/n63", 0x387a5655a10e816eull},
    {"ring/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"ring/f64_sum/w7/n4097", 0x86fa4e00ccac47adull},
    {"ring/f64_sum/w7/n63", 0x6abd89d0256a3e52ull},
    {"ring/f64_sum/w8/n1", 0x979dcfe41ae32ae5ull},
    {"ring/f64_sum/w8/n4097", 0x56ec1cd105faf865ull},
    {"ring/f64_sum/w8/n63", 0x9ee62c19b0115925ull},
    {"ring/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"ring/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"ring/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"ring/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"ring/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"ring/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"ring/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"ring/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"ring/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"ring/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"ring/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"ring/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"ring/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"ring/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"ring/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"ring/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"ring/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"ring/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"ring_chunked/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"ring_chunked/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"ring_chunked/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"ring_chunked/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"ring_chunked/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"ring_chunked/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"ring_chunked/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"ring_chunked/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"ring_chunked/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"ring_chunked/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"ring_chunked/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"ring_chunked/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"ring_chunked/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"ring_chunked/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"ring_chunked/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"ring_chunked/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"ring_chunked/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"ring_chunked/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"ring_chunked/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"ring_chunked/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"ring_chunked/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"ring_chunked/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"ring_chunked/f32_sum/w3/n4097", 0x3d8e5a5de2520934ull},
    {"ring_chunked/f32_sum/w3/n63", 0x41c25d1cc27540d6ull},
    {"ring_chunked/f32_sum/w4/n1", 0x61c92e6753b1b205ull},
    {"ring_chunked/f32_sum/w4/n4097", 0x45760ded1a34b0e5ull},
    {"ring_chunked/f32_sum/w4/n63", 0x70cbd4539eb4a3bdull},
    {"ring_chunked/f32_sum/w5/n1", 0x60c74fedd6316169ull},
    {"ring_chunked/f32_sum/w5/n4097", 0xb939e8c0b154bde2ull},
    {"ring_chunked/f32_sum/w5/n63", 0x8b6f23b3dddf1558ull},
    {"ring_chunked/f32_sum/w7/n1", 0xe89e1d2399f4e58dull},
    {"ring_chunked/f32_sum/w7/n4097", 0xf7feaf0ab5ef228bull},
    {"ring_chunked/f32_sum/w7/n63", 0x58a0604903134705ull},
    {"ring_chunked/f32_sum/w8/n1", 0x123846fe16404595ull},
    {"ring_chunked/f32_sum/w8/n4097", 0xe08e5f3e3eddfb25ull},
    {"ring_chunked/f32_sum/w8/n63", 0x37e0c4b4326131c5ull},
    {"ring_chunked/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"ring_chunked/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"ring_chunked/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"ring_chunked/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"ring_chunked/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"ring_chunked/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"ring_chunked/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"ring_chunked/f64_sum/w4/n4097", 0xc945175086fc5485ull},
    {"ring_chunked/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"ring_chunked/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"ring_chunked/f64_sum/w5/n4097", 0x77548f81a67328deull},
    {"ring_chunked/f64_sum/w5/n63", 0x2296be2ce69027e6ull},
    {"ring_chunked/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"ring_chunked/f64_sum/w7/n4097", 0xe8a0fd54183a8d11ull},
    {"ring_chunked/f64_sum/w7/n63", 0x8264573361801180ull},
    {"ring_chunked/f64_sum/w8/n1", 0x979dcfe41ae32ae5ull},
    {"ring_chunked/f64_sum/w8/n4097", 0x7768ef299a61d2d5ull},
    {"ring_chunked/f64_sum/w8/n63", 0xd0804702123c5c05ull},
    {"ring_chunked/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"ring_chunked/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"ring_chunked/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"ring_chunked/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"ring_chunked/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"ring_chunked/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"ring_chunked/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"ring_chunked/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"ring_chunked/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"ring_chunked/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"ring_chunked/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"ring_chunked/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"ring_chunked/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"ring_chunked/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"ring_chunked/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"ring_chunked/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"ring_chunked/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"ring_chunked/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
    {"tree/f32_max/w2/n1", 0xcc09d4d6c7f6d29dull},
    {"tree/f32_max/w2/n4097", 0x6b5e6661cc99aae9ull},
    {"tree/f32_max/w2/n63", 0x9b90535d380d9dc1ull},
    {"tree/f32_max/w3/n1", 0x95dd1d407a51ad19ull},
    {"tree/f32_max/w3/n4097", 0xdfd744baae5b5286ull},
    {"tree/f32_max/w3/n63", 0x246f2e1c5ceb814cull},
    {"tree/f32_max/w4/n1", 0xd12710f958de9d75ull},
    {"tree/f32_max/w4/n4097", 0xdbd0c9574144e9fdull},
    {"tree/f32_max/w4/n63", 0x3193ec1cd0a738a5ull},
    {"tree/f32_max/w5/n1", 0x9e61c5d75ff459f0ull},
    {"tree/f32_max/w5/n4097", 0x13ddd1e1f139a621ull},
    {"tree/f32_max/w5/n63", 0x899f933cc1012224ull},
    {"tree/f32_max/w7/n1", 0x4942bc55a04007deull},
    {"tree/f32_max/w7/n4097", 0xc610ebd7fe4133dcull},
    {"tree/f32_max/w7/n63", 0xf088b5fc171d4b03ull},
    {"tree/f32_max/w8/n1", 0xa7c8a30f884a61c5ull},
    {"tree/f32_max/w8/n4097", 0x874f6677c8d096a5ull},
    {"tree/f32_max/w8/n63", 0x9830cd2365178775ull},
    {"tree/f32_sum/w2/n1", 0xbf8757d110585cb5ull},
    {"tree/f32_sum/w2/n4097", 0xde05a0bf12510dc5ull},
    {"tree/f32_sum/w2/n63", 0x42bbdc918d8cef6dull},
    {"tree/f32_sum/w3/n1", 0x2c45c4165ec35b6aull},
    {"tree/f32_sum/w3/n4097", 0x04eb7ceb62c0be82ull},
    {"tree/f32_sum/w3/n63", 0xbf295ec7ebc3df5dull},
    {"tree/f32_sum/w4/n1", 0xfc8d2b80f61b0ab5ull},
    {"tree/f32_sum/w4/n4097", 0xf9e43bfde4cafea5ull},
    {"tree/f32_sum/w4/n63", 0x821d52d307dfceedull},
    {"tree/f32_sum/w5/n1", 0x88d9dbd92a06db01ull},
    {"tree/f32_sum/w5/n4097", 0x6ab22676c7fc2199ull},
    {"tree/f32_sum/w5/n63", 0x0d5d6f66f126833cull},
    {"tree/f32_sum/w7/n1", 0xc7c045c90ee4483eull},
    {"tree/f32_sum/w7/n4097", 0xe3796f4755e0bd98ull},
    {"tree/f32_sum/w7/n63", 0x356b999340509429ull},
    {"tree/f32_sum/w8/n1", 0x123846fe16404595ull},
    {"tree/f32_sum/w8/n4097", 0x8a7180f563552525ull},
    {"tree/f32_sum/w8/n63", 0x7d49b0b5e83061d5ull},
    {"tree/f64_sum/w2/n1", 0x5f507b30ab17fdb5ull},
    {"tree/f64_sum/w2/n4097", 0xc9792264077ed295ull},
    {"tree/f64_sum/w2/n63", 0xc5a8385d22c30915ull},
    {"tree/f64_sum/w3/n1", 0x9efe510995e7b57eull},
    {"tree/f64_sum/w3/n4097", 0xa9e87e90cb7707c0ull},
    {"tree/f64_sum/w3/n63", 0x53da9063d9d9b6eaull},
    {"tree/f64_sum/w4/n1", 0x6f60e1a4c3f3cb85ull},
    {"tree/f64_sum/w4/n4097", 0xd8a04ee28efc0aadull},
    {"tree/f64_sum/w4/n63", 0x7aeab7fd3f0e0ff5ull},
    {"tree/f64_sum/w5/n1", 0x84cb213eb754263bull},
    {"tree/f64_sum/w5/n4097", 0xd2afa52210971685ull},
    {"tree/f64_sum/w5/n63", 0x0225e94807a5a76eull},
    {"tree/f64_sum/w7/n1", 0x1531ac6840b0f9f7ull},
    {"tree/f64_sum/w7/n4097", 0xe575c14b11dfeaaeull},
    {"tree/f64_sum/w7/n63", 0xffcd099e8e8d69e1ull},
    {"tree/f64_sum/w8/n1", 0xe07928f9b24278b5ull},
    {"tree/f64_sum/w8/n4097", 0x3c118fea678d5325ull},
    {"tree/f64_sum/w8/n63", 0xec85c9558fc67e75ull},
    {"tree/i64_sum/w2/n1", 0x577d7ddb3e6d76b5ull},
    {"tree/i64_sum/w2/n4097", 0x6fda6093bbaff535ull},
    {"tree/i64_sum/w2/n63", 0x99405ab9f904b225ull},
    {"tree/i64_sum/w3/n1", 0x7b8fa93e8ff8583dull},
    {"tree/i64_sum/w3/n4097", 0x4cc7b2716dbef63aull},
    {"tree/i64_sum/w3/n63", 0x77102ca010163419ull},
    {"tree/i64_sum/w4/n1", 0x336d03d20022345dull},
    {"tree/i64_sum/w4/n4097", 0x40c0c08ec4e6266dull},
    {"tree/i64_sum/w4/n63", 0x6aab39f8d363ee05ull},
    {"tree/i64_sum/w5/n1", 0x863fd874ad7a04c3ull},
    {"tree/i64_sum/w5/n4097", 0xa4c61cde825aa666ull},
    {"tree/i64_sum/w5/n63", 0xaf1c6c9cd85ad4deull},
    {"tree/i64_sum/w7/n1", 0x4fdb46dd602b2e14ull},
    {"tree/i64_sum/w7/n4097", 0x169dce01b3721d88ull},
    {"tree/i64_sum/w7/n63", 0x222bc821fa2b0fffull},
    {"tree/i64_sum/w8/n1", 0xf86ab4a0cf5f3d25ull},
    {"tree/i64_sum/w8/n4097", 0x7734073add6d3075ull},
    {"tree/i64_sum/w8/n63", 0x4ada0ebe360d6fa5ull},
};

const Golden kOtherGolden[] = {
    {"all_gather_f32/w2/n1", 0x0e6766a640220ff5ull},
    {"all_gather_f32/w2/n4097", 0x87fd8b569cc4a289ull},
    {"all_gather_f32/w2/n63", 0x2e417ebc8d0430d1ull},
    {"all_gather_f32/w3/n1", 0x69c1613930cb8d67ull},
    {"all_gather_f32/w3/n4097", 0xf6a11ea0add4b2faull},
    {"all_gather_f32/w3/n63", 0xf647294761aebfbbull},
    {"all_gather_f32/w4/n1", 0xfe7117beb13d9825ull},
    {"all_gather_f32/w4/n4097", 0xc6a2360c15d35f55ull},
    {"all_gather_f32/w4/n63", 0xc502e0cc24aeb29dull},
    {"all_gather_f32/w5/n1", 0x0aa11b9586513f9bull},
    {"all_gather_f32/w5/n4097", 0xa254b084ea44dee7ull},
    {"all_gather_f32/w5/n63", 0x5fd0ebd00e06460bull},
    {"all_gather_f32/w7/n1", 0x5b6201025b360e3eull},
    {"all_gather_f32/w7/n4097", 0x53b2683e34f5d7b3ull},
    {"all_gather_f32/w7/n63", 0xd0bf32fd7bee9611ull},
    {"all_gather_f32/w8/n1", 0xac4353f4c23749a5ull},
    {"all_gather_f32/w8/n4097", 0x338eeecb598308d5ull},
    {"all_gather_f32/w8/n63", 0xac5c4866579ee945ull},
    {"fp16_sum/w2/n1", 0x9caf9aea33750675ull},
    {"fp16_sum/w2/n4097", 0xd12c1c0125936089ull},
    {"fp16_sum/w2/n63", 0x5fd09ffea79aad0dull},
    {"fp16_sum/w3/n1", 0xb817f34d519db641ull},
    {"fp16_sum/w3/n4097", 0x17b90dea3e27419cull},
    {"fp16_sum/w3/n63", 0xc1027b634e242879ull},
    {"fp16_sum/w4/n1", 0x8c53f543ab8501c5ull},
    {"fp16_sum/w4/n4097", 0x2f70ed8f008f4ec5ull},
    {"fp16_sum/w4/n63", 0xe3265cfc772a1bbdull},
    {"fp16_sum/w5/n1", 0x583e856c3ce5b604ull},
    {"fp16_sum/w5/n4097", 0xcb5f3c3a2ef2bdedull},
    {"fp16_sum/w5/n63", 0x73499d10ecffd216ull},
    {"fp16_sum/w7/n1", 0xb49cfaec3084b166ull},
    {"fp16_sum/w7/n4097", 0xefe0626ae7c91d36ull},
    {"fp16_sum/w7/n63", 0xa74a9bbab6830cc3ull},
    {"fp16_sum/w8/n1", 0xb693ab3545a24755ull},
    {"fp16_sum/w8/n4097", 0xdd9c7e1bdc2fd975ull},
    {"fp16_sum/w8/n63", 0x5f20f6393428f4f5ull},
    {"reduce_f32_sum/w2/n1", 0xac9b5cb7cfc46922ull},
    {"reduce_f32_sum/w2/n4097", 0x04153319425df500ull},
    {"reduce_f32_sum/w2/n63", 0x34731dabf856d95dull},
    {"reduce_f32_sum/w3/n1", 0x2d7aa4ece13265e2ull},
    {"reduce_f32_sum/w3/n4097", 0x80ccb3a9fff2d101ull},
    {"reduce_f32_sum/w3/n63", 0xe03aca95e3fd6ad2ull},
    {"reduce_f32_sum/w4/n1", 0xec91fb520de7fe9full},
    {"reduce_f32_sum/w4/n4097", 0x6b315da8c6e3ad0cull},
    {"reduce_f32_sum/w4/n63", 0xd2cd5e0e1caf6009ull},
    {"reduce_f32_sum/w5/n1", 0x74a48daed3154ac1ull},
    {"reduce_f32_sum/w5/n4097", 0x3fbbefe465ccc815ull},
    {"reduce_f32_sum/w5/n63", 0xe892de771b115fc8ull},
    {"reduce_f32_sum/w7/n1", 0xab2412ee47d9ab16ull},
    {"reduce_f32_sum/w7/n4097", 0x9248ecd58314f9f5ull},
    {"reduce_f32_sum/w7/n63", 0x3b6681e52e9cb82aull},
    {"reduce_f32_sum/w8/n1", 0x62a0fe8b0666202bull},
    {"reduce_f32_sum/w8/n4097", 0xc80579d12e7368f7ull},
    {"reduce_f32_sum/w8/n63", 0x55c9beb3ef17430dull},
    {"reduce_scatter_f32_sum/w2/n1", 0x343f1e965738d98dull},
    {"reduce_scatter_f32_sum/w2/n4097", 0x0cd4005300a94d27ull},
    {"reduce_scatter_f32_sum/w2/n63", 0xdc09a7d0400c525full},
    {"reduce_scatter_f32_sum/w3/n1", 0x072ec736044b39a7ull},
    {"reduce_scatter_f32_sum/w3/n4097", 0xb32a84d3508e2b2cull},
    {"reduce_scatter_f32_sum/w3/n63", 0xbf96478800fbd744ull},
    {"reduce_scatter_f32_sum/w4/n1", 0xa6fa646e1f4e4c4dull},
    {"reduce_scatter_f32_sum/w4/n4097", 0x1cc5bfe12ed8d35aull},
    {"reduce_scatter_f32_sum/w4/n63", 0x18c6083945568b12ull},
    {"reduce_scatter_f32_sum/w5/n1", 0x8ec0a926ba4bdf35ull},
    {"reduce_scatter_f32_sum/w5/n4097", 0x75473a50721188a3ull},
    {"reduce_scatter_f32_sum/w5/n63", 0xd5c4bef87650a75aull},
    {"reduce_scatter_f32_sum/w7/n1", 0x8582bf49959f3a0full},
    {"reduce_scatter_f32_sum/w7/n4097", 0x74089f91a7b1e8ccull},
    {"reduce_scatter_f32_sum/w7/n63", 0x889faaf8cfc80701ull},
    {"reduce_scatter_f32_sum/w8/n1", 0xe93f5cc485f152e4ull},
    {"reduce_scatter_f32_sum/w8/n4097", 0x74523aee7ce092fcull},
    {"reduce_scatter_f32_sum/w8/n63", 0x31b943b26c1f7ca1ull},
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

TEST(CommAlgorithmsGoldenTest, AllReduceZooCombineOrdersPinned) {
  ExpectMatchesGolden(ComputeAllReduceZoo(), kZooGolden);
}

TEST(CommAlgorithmsGoldenTest, OtherCollectivesPinned) {
  ExpectMatchesGolden(ComputeOtherCollectives(), kOtherGolden);
}

}  // namespace
}  // namespace ddpkit::comm
