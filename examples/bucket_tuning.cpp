// Bucket-size tuning walkthrough — how an application developer would use
// the cluster simulator to pick bucket_cap_mb for their model and fabric,
// the empirical procedure the paper recommends (§5.2, §6.1).
//
// Sweeps bucket caps for a chosen paper model at a chosen scale and prints
// the per-iteration latency table, plus the extension features' effect
// (gradient-order rebuild and fp16 compression).
//
// Run: ./bucket_tuning [model=resnet50|resnet152|bert] [world=16]
//                      [backend=nccl|gloo]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/cluster_sim.h"
#include "core/memory.h"

using namespace ddpkit;  // NOLINT — example brevity

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "resnet50";
  const int world = argc > 2 ? std::atoi(argv[2]) : 16;
  const std::string backend_name = argc > 3 ? argv[3] : "nccl";

  cluster::ModelSpec spec;
  if (model_name == "resnet152") {
    spec = cluster::ResNet152Spec();
  } else if (model_name == "bert") {
    spec = cluster::BertBaseSpec();
  } else {
    spec = cluster::ResNet50Spec();
  }
  const sim::Backend backend =
      backend_name == "gloo" ? sim::Backend::kGloo : sim::Backend::kNccl;

  std::printf("bucket tuning for %s (%.1fM params, %.0f MB of gradients) "
              "on %d simulated GPUs, %s backend\n\n",
              spec.name.c_str(), spec.TotalNumel() / 1e6,
              spec.TotalBytes() / 1048576.0, world,
              sim::BackendName(backend));

  std::printf("%-12s %-8s %-14s %-14s %-14s\n", "bucket_cap", "buckets",
              "median (s)", "p25..p75", "exposed comm");
  const size_t caps_mb[] = {0, 1, 5, 10, 25, 50, 100, 200};
  double best = 1e30;
  size_t best_cap = 0;
  for (size_t cap_mb : caps_mb) {
    cluster::ClusterConfig config;
    config.world = world;
    config.backend = backend;
    config.bucket_cap_bytes = cap_mb << 20;
    config.straggler.sigma = 0.03;
    cluster::ClusterSim sim(spec, config);
    auto result = sim.Run(40);
    auto summary = result.LatencySummary();
    std::printf("%8zu MB  %-8zu %-14.4f %.4f..%.4f %14.4f\n", cap_mb,
                result.num_buckets, summary.median, summary.p25, summary.p75,
                result.mean_breakdown.backward_comm_exposed);
    if (summary.median < best) {
      best = summary.median;
      best_cap = cap_mb;
    }
  }
  std::printf("\n-> best cap: %zu MB (%.4f s/iter). Both tiny and giant "
              "buckets lose: tiny pays per-op latency, giant forfeits "
              "overlap (paper 5.2).\n\n",
              best_cap, best);

  // Extensions at the best cap.
  cluster::ClusterConfig config;
  config.world = world;
  config.backend = backend;
  config.bucket_cap_bytes = best_cap << 20;
  config.straggler.sigma = 0.03;
  auto baseline = cluster::ClusterSim(spec, config).Run(40);

  auto fp16 = config;
  fp16.comm_bytes_scale = 0.5;
  auto fp16_result = cluster::ClusterSim(spec, fp16).Run(40);

  auto rr3 = config;
  rr3.round_robin_groups = 3;
  auto rr3_result = cluster::ClusterSim(spec, rr3).Run(40);

  // Per-rank memory bill for the winning configuration.
  {
    core::ReducerOptions reducer_options;
    reducer_options.bucket_cap_bytes = best_cap << 20;
    std::printf("per-rank memory at %zu MB buckets: %s\n\n", best_cap,
                core::EstimateDdpMemory(spec.params, reducer_options)
                    .ToString()
                    .c_str());
  }

  std::printf("extensions at %zu MB:\n", best_cap);
  std::printf("  baseline:                %.4f s/iter\n",
              baseline.LatencySummary().median);
  std::printf("  fp16 compression (x0.5): %.4f s/iter\n",
              fp16_result.LatencySummary().median);
  std::printf("  round-robin x3 groups:   %.4f s/iter\n",
              rr3_result.LatencySummary().median);
  return 0;
}
