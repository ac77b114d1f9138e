// Figure 9: scalability — per-iteration latency from 1 to 256 GPUs for
// ResNet50 and BERT on NCCL and Gloo. Beyond 32 GPUs the paper used a
// shared entitlement with variable hardware; we reproduce that with
// degraded network links above 128 GPUs (the source of the 128->256 jump)
// and stronger straggler jitter.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"

using namespace ddpkit;  // NOLINT

namespace {

const int kWorlds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

cluster::ClusterConfig SharedEntitlementConfig(int world,
                                               sim::Backend backend) {
  cluster::ClusterConfig config;
  config.world = world;
  config.backend = backend;
  // Shared entitlement: more jitter, and congested links beyond 128 GPUs.
  config.straggler.sigma = world > 32 ? 0.06 : 0.03;
  sim::NcclCostModel::Options nccl;
  nccl.degraded_above_world = 128;
  nccl.degraded_net_factor = 0.5;
  config.nccl_options = nccl;
  return config;
}

json::Value RunCombo(const cluster::ModelSpec& spec, sim::Backend backend) {
  std::printf("%s on %s:\n", spec.name.c_str(), sim::BackendName(backend));
  std::printf("  %-8s %-14s %-14s %-14s\n", "gpus", "median_sec",
              "p25_sec", "p75_sec");
  json::Array rows;
  for (int world : kWorlds) {
    auto config = SharedEntitlementConfig(world, backend);
    cluster::ClusterSim sim(spec, config);
    auto summary = sim.Run(40).LatencySummary();
    std::printf("  %-8d %-14.4f %-14.4f %-14.4f\n", world, summary.median,
                summary.p25, summary.p75);
    rows.emplace_back(json::Object{{"world", world},
                                   {"median_seconds", summary.median},
                                   {"p25_seconds", summary.p25},
                                   {"p75_seconds", summary.p75}});
  }
  std::printf("\n");
  return json::Object{{"model", spec.name},
                      {"backend", sim::BackendName(backend)},
                      {"rows", std::move(rows)}};
}

}  // namespace

int main() {
  bench::Banner("Figure 9", "Scalability: per-iteration latency, 1-256 GPUs");
  bench::JsonReport report("fig9_scalability");
  json::Array combos{RunCombo(cluster::ResNet50Spec(), sim::Backend::kNccl),
                     RunCombo(cluster::ResNet50Spec(), sim::Backend::kGloo),
                     RunCombo(cluster::BertBaseSpec(), sim::Backend::kNccl),
                     RunCombo(cluster::BertBaseSpec(), sim::Backend::kGloo)};
  report.Add("combos", std::move(combos));
  report.Write();
  std::printf("Expected shape: latency grows steadily with scale; "
              "ResNet50/NCCL at 256 GPUs ~2x the 1-GPU latency (real "
              "scaling factor ~128, paper 5.3); Gloo degrades ~3x for "
              "ResNet50 and more for BERT; a jump appears from 128 to 256 "
              "on NCCL (slow/congested shared links).\n");
  return 0;
}
