// Figure 5: the GPU connection topology of one 8-V100 server (hybrid
// cube-mesh) plus the derived link/ring characteristics the cost models
// consume.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "bench_util.h"
#include "sim/topology.h"

using namespace ddpkit;  // NOLINT

int main() {
  bench::Banner("Figure 5", "GPU connection topology (8 GPUs per server)");
  sim::Topology topo;
  std::printf("%s\n", topo.MatrixString().c_str());
  bench::JsonReport report("fig5_topology");

  std::printf("link characteristics:\n");
  for (sim::LinkType type : {sim::LinkType::kNv2, sim::LinkType::kNv1,
                             sim::LinkType::kNode, sim::LinkType::kNet}) {
    std::printf("  %-5s bandwidth %6.1f GB/s   latency %5.1f us\n",
                sim::LinkTypeName(type), topo.Bandwidth(type) / 1e9,
                topo.Latency(type) * 1e6);
  }

  std::printf("\nring bottlenecks by world size:\n");
  std::printf("%-8s %-18s %-14s %-12s\n", "world", "ring_bw_GBps",
              "hop_latency_us", "single_host");
  json::Array rows;
  for (int world : {2, 4, 8, 16, 32, 64, 256}) {
    std::printf("%-8d %-18.1f %-14.1f %-12s\n", world,
                topo.RingBandwidth(world) / 1e9,
                topo.RingHopLatency(world) * 1e6,
                topo.SingleHost(world) ? "yes" : "no");
    rows.emplace_back(json::Object{
        {"world", world},
        {"ring_bandwidth_bytes_per_second", topo.RingBandwidth(world)},
        {"ring_hop_latency_seconds", topo.RingHopLatency(world)},
        {"single_host", topo.SingleHost(world)}});
  }
  report.Add("ring_bottlenecks", std::move(rows));
  report.Write();
  std::printf("\nCrossing the host boundary (world > 8) drops the ring to "
              "NIC bandwidth — the paper's recommendation to keep DDP "
              "groups within one machine when possible (6.1).\n");
  return 0;
}
