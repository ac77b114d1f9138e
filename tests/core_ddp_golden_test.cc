// Golden training digests for DistributedDataParallel.
//
// Every case trains a small model for four SGD-momentum steps on each rank
// of a SimWorld, then hashes (FNV-1a-64), rank by rank, every parameter,
// every gradient (an undefined gradient hashes a marker instead) and every
// momentum buffer, and compares against a pinned value. Float sums are not
// associative, so a change to what lands in a bucket, to the reduction or
// averaging order, or to which gradients DDP touches flips some bit and
// with it the hash. Parameters and inputs come from Rng::Uniform, never
// Randn, so no libm result reaches a hash.
//
// Cases, each at world {2, 3}: Mlp + MSELoss at the default bucket cap; a
// 256 B cap (several buckets); no_sync on every other step; the fp16
// compression hook; BranchyNet with find_unused_parameters where the branch
// depends on the rank, and where every rank skips branch B; and one
// RebuildBucketsFromTrace after step 2.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/compression.h"
#include "core/distributed_data_parallel.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
constexpr int kSteps = 4;
constexpr int64_t kBatch = 3;
constexpr int64_t kDim = 6;

uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t HashTensor(uint64_t hash, const Tensor& t) {
  if (!t.defined()) {
    constexpr char kUndefined[] = "undefined";
    return Fnv1a(hash, kUndefined, sizeof(kUndefined));
  }
  Tensor dense = t.Contiguous();
  return Fnv1a(hash, dense.data<float>(),
               static_cast<size_t>(dense.numel()) * sizeof(float));
}

Tensor UniformTensor(const std::vector<int64_t>& shape, Rng* rng) {
  Tensor t = Tensor::Zeros(shape);
  float* data = t.data<float>();
  for (int64_t i = 0; i < t.numel(); ++i) {
    data[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

enum class Model { kMlp, kBranchy };
enum class Branch { kByRank, kAlwaysA };

struct Case {
  const char* name;
  Model model = Model::kMlp;
  size_t bucket_cap_bytes = 25u << 20;
  bool no_sync_every_other_step = false;
  bool fp16_hook = false;
  Branch branch = Branch::kAlwaysA;
  bool rebuild_after_step_2 = false;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({.name = "mlp_default_cap"});
  cases.push_back({.name = "mlp_cap256", .bucket_cap_bytes = 256});
  cases.push_back({.name = "mlp_no_sync_every_other_step",
                   .no_sync_every_other_step = true});
  cases.push_back({.name = "mlp_fp16_hook", .fp16_hook = true});
  cases.push_back({.name = "branchy_unused_by_rank",
                   .model = Model::kBranchy,
                   .branch = Branch::kByRank});
  cases.push_back({.name = "branchy_all_skip_b",
                   .model = Model::kBranchy,
                   .branch = Branch::kAlwaysA});
  cases.push_back({.name = "mlp_cap256_rebuild",
                   .bucket_cap_bytes = 256,
                   .rebuild_after_step_2 = true});
  return cases;
}

uint64_t Seed(int world, int rank, int step, uint64_t salt) {
  return salt * 1000003ull + static_cast<uint64_t>(world) * 10007ull +
         static_cast<uint64_t>(rank) * 101ull + static_cast<uint64_t>(step);
}

/// Trains one case and returns the hash over every rank's state, in rank
/// order.
uint64_t RunCase(const Case& c, int world) {
  std::vector<uint64_t> rank_hash(static_cast<size_t>(world), 0);
  SimWorld::Run(world, [&](SimWorld::RankContext& ctx) {
    Rng init_rng(11);
    std::shared_ptr<nn::Module> model;
    std::shared_ptr<nn::BranchyNet> branchy;
    if (c.model == Model::kBranchy) {
      branchy = std::make_shared<nn::BranchyNet>(kDim, &init_rng);
      model = branchy;
    } else {
      model = std::make_shared<nn::Mlp>(std::vector<int64_t>{kDim, 8, 8, 3},
                                        &init_rng);
    }
    Rng param_rng(12);
    for (Tensor& p : model->parameters()) {
      p.CopyFrom(UniformTensor(p.shape(), &param_rng));
    }

    DdpOptions options;
    options.bucket_cap_bytes = c.bucket_cap_bytes;
    options.find_unused_parameters = c.model == Model::kBranchy;
    if (c.fp16_hook) {
      options.comm_hook = std::make_shared<Fp16CompressionHook>();
    }
    DistributedDataParallel ddp(model, ctx.process_group, options);
    optim::Sgd opt(model->parameters(),
                   optim::Sgd::Options{.lr = 0.05, .momentum = 0.9});
    const int64_t out_dim = c.model == Model::kBranchy ? kDim : 3;

    for (int step = 0; step < kSteps; ++step) {
      const bool sync = !(c.no_sync_every_other_step && step % 2 == 0);
      // Zero at the start of each accumulation window.
      if (!c.no_sync_every_other_step || step % 2 == 0) opt.ZeroGrad();
      if (branchy != nullptr) {
        branchy->set_use_branch_a(c.branch == Branch::kAlwaysA ||
                                  (ctx.rank + step) % 2 == 0);
      }
      Rng data_rng(Seed(world, ctx.rank, step, 1));
      Tensor x = UniformTensor({kBatch, kDim}, &data_rng);
      Tensor y = UniformTensor({kBatch, out_dim}, &data_rng);
      if (sync) {
        autograd::Backward(nn::MSELoss()(ddp.Forward(x), y));
        ASSERT_TRUE(ddp.sync_status().ok()) << ddp.sync_status().ToString();
        opt.Step(ddp.globally_used_mask());
      } else {
        auto guard = ddp.no_sync();
        autograd::Backward(nn::MSELoss()(ddp.Forward(x), y));
      }
      if (c.rebuild_after_step_2 && step == 1) {
        // The 256 B layout differs from the observed ready order, so the
        // rebuild moves gradients between buckets.
        EXPECT_TRUE(ddp.reducer().RebuildBucketsFromTrace());
      }
    }

    uint64_t hash = kFnvOffset;
    for (const Tensor& p : model->parameters()) {
      hash = HashTensor(hash, p);
      hash = HashTensor(hash, p.grad());
    }
    for (const auto& [name, buffer] : opt.named_state()) {
      hash = HashTensor(hash, buffer);
    }
    rank_hash[static_cast<size_t>(ctx.rank)] = hash;
  });
  uint64_t hash = kFnvOffset;
  for (uint64_t h : rank_hash) hash = Fnv1a(hash, &h, sizeof(h));
  return hash;
}

std::map<std::string, uint64_t> ComputeDigests() {
  std::map<std::string, uint64_t> out;
  for (const Case& c : Cases()) {
    for (int world : {2, 3}) {
      out[std::string(c.name) + "/w" + std::to_string(world)] =
          RunCase(c, world);
    }
  }
  return out;
}

struct Golden {
  const char* key;
  uint64_t hash;
};

// clang-format off
const Golden kDdpGolden[] = {
    {"branchy_all_skip_b/w2", 0x9b2fe2ba17c0c079ull},
    {"branchy_all_skip_b/w3", 0x58d9a9b038dde4bcull},
    {"branchy_unused_by_rank/w2", 0x082dece4c0061885ull},
    {"branchy_unused_by_rank/w3", 0x36fe8b2898ecdb35ull},
    {"mlp_cap256/w2", 0xfedf9936d12c3b95ull},
    {"mlp_cap256/w3", 0xbcd675b016f62ca3ull},
    {"mlp_cap256_rebuild/w2", 0xfedf9936d12c3b95ull},
    {"mlp_cap256_rebuild/w3", 0x89cbd26b6f5fe007ull},
    {"mlp_default_cap/w2", 0xfedf9936d12c3b95ull},
    {"mlp_default_cap/w3", 0xc2f8241f9d7f8c8full},
    {"mlp_fp16_hook/w2", 0x25f88b34e5d89e55ull},
    {"mlp_fp16_hook/w3", 0x73d36fc8b3302cb1ull},
    {"mlp_no_sync_every_other_step/w2", 0x1aeabfdff8bf0025ull},
    {"mlp_no_sync_every_other_step/w3", 0x03ac5378610c1d4dull},
};
// clang-format on

TEST(DdpGoldenTest, TrainingDigestsPinned) {
  const std::map<std::string, uint64_t> got = ComputeDigests();
  EXPECT_EQ(std::size(kDdpGolden), got.size())
      << "golden table and computed cases differ";
  for (const Golden& g : kDdpGolden) {
    auto it = got.find(g.key);
    ASSERT_NE(it, got.end()) << "no case computed for " << g.key;
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  static_cast<unsigned long long>(it->second));
    EXPECT_EQ(g.hash, it->second) << g.key << " now hashes to " << actual;
  }
}

}  // namespace
}  // namespace ddpkit::core
