#ifndef DDPKIT_BENCH_BUCKET_SWEEP_H_
#define DDPKIT_BENCH_BUCKET_SWEEP_H_

// Shared implementation for the Figure 7 (16 GPUs) and Figure 8 (32 GPUs)
// bucket-size sweeps.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"

namespace ddpkit::bench {

inline json::Value BucketSweep(int world, const cluster::ModelSpec& spec,
                               sim::Backend backend,
                               const std::vector<size_t>& caps_mb) {
  std::printf("%s on %s (%d GPUs):\n", spec.name.c_str(),
              sim::BackendName(backend), world);
  json::Array rows;
  for (size_t cap_mb : caps_mb) {
    cluster::ClusterConfig config;
    config.world = world;
    config.backend = backend;
    config.bucket_cap_bytes = cap_mb << 20;
    config.straggler.sigma = backend == sim::Backend::kGloo ? 0.06 : 0.03;
    config.hiccup_every = 100;
    config.hiccup_seconds = 0.08;
    cluster::ClusterSim sim(spec, config);
    auto result = sim.Run(220);
    const Summary s = result.LatencySummary();
    PrintBoxRow(std::to_string(cap_mb) + " MB", s);
    rows.emplace_back(json::Object{{"bucket_cap_mb", cap_mb},
                                   {"median_seconds", s.median},
                                   {"min_seconds", s.min},
                                   {"max_seconds", s.max}});
  }
  std::printf("\n");
  return json::Object{{"model", spec.name},
                      {"backend", sim::BackendName(backend)},
                      {"rows", std::move(rows)}};
}

inline void RunBucketFigure(const char* figure, int world) {
  Banner(figure, "Per-iteration latency vs bucket size");
  const std::vector<size_t> resnet_caps = {0, 5, 10, 25, 50};
  const std::vector<size_t> bert_caps = {0, 5, 10, 25, 50, 100, 200};
  JsonReport report(world == 16 ? "fig7_bucket16" : "fig8_bucket32");
  report.Add("world", world);
  report.Add("combos",
             json::Array{BucketSweep(world, cluster::ResNet50Spec(),
                                     sim::Backend::kNccl, resnet_caps),
                         BucketSweep(world, cluster::ResNet50Spec(),
                                     sim::Backend::kGloo, resnet_caps),
                         BucketSweep(world, cluster::BertBaseSpec(),
                                     sim::Backend::kNccl, bert_caps),
                         BucketSweep(world, cluster::BertBaseSpec(),
                                     sim::Backend::kGloo, bert_caps)});
  report.Write();
  std::printf("Expected shape: 0 MB (per-gradient AllReduce) is worst; "
              "ResNet50/NCCL optimum near 10-25 MB; BERT/NCCL favors larger "
              "buckets; Gloo favors small (~5 MB) buckets since its "
              "bandwidth saturates at small messages (paper Fig %s).\n",
              world == 16 ? "7" : "8");
}

}  // namespace ddpkit::bench

#endif  // DDPKIT_BENCH_BUCKET_SWEEP_H_
