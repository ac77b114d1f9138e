// Figure 6: per-iteration latency breakdown with and without overlapping
// communication with the backward pass, for ResNet50 and BERT on NCCL and
// Gloo, 32 GPUs across 4 machines. Latencies are normalized so each
// combination's non-overlapping total is 1, as in the paper.
//
// Two measurement planes back the same figure:
//  - the analytic ClusterSim sweep (32 GPUs, straggler jitter) for the
//    paper-scale numbers, and
//  - a real 4-rank DDP run through the Reducer's telemetry layer, whose
//    per-iteration DDPTelemetry frames carry the same quantities (forward,
//    backward compute, exposed allreduce wait, hidden overlap) measured
//    from the actual bucket launch/completion windows.
// Both land in BENCH_fig6_breakdown.json.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "bench_json.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "nn/zoo.h"

using namespace ddpkit;  // NOLINT

namespace {

json::Value RunCombo(const cluster::ModelSpec& spec, sim::Backend backend) {
  cluster::ClusterConfig config;
  config.world = 32;
  config.backend = backend;
  config.straggler.sigma = 0.02;

  auto non_overlap_config = config;
  non_overlap_config.overlap = false;
  auto non_overlap = cluster::ClusterSim(spec, non_overlap_config).Run(20);
  auto overlap = cluster::ClusterSim(spec, config).Run(20);

  const double norm = non_overlap.mean_breakdown.total;
  auto row = [&](const char* label, const cluster::IterationBreakdown& b) {
    std::printf("  %-14s fwd=%.3f bwd_comp=%.3f bwd_comm=%.3f opt=%.3f "
                "total=%.3f\n",
                label, b.forward / norm, b.backward_compute / norm,
                b.backward_comm_exposed / norm, b.optimizer / norm,
                b.total / norm);
  };
  std::printf("%s on %s (32 GPUs, normalized to non-overlap total):\n",
              spec.name.c_str(), sim::BackendName(backend));
  row("non-overlap", non_overlap.mean_breakdown);
  row("overlap", overlap.mean_breakdown);
  const double speedup =
      (non_overlap.mean_breakdown.total - overlap.mean_breakdown.total) /
      non_overlap.mean_breakdown.total;
  std::printf("  overlap speedup: %.1f%%\n\n", speedup * 100.0);

  auto breakdown_json = [](const cluster::IterationBreakdown& b) {
    return json::Object{{"forward", b.forward},
                        {"backward_compute", b.backward_compute},
                        {"backward_comm_exposed", b.backward_comm_exposed},
                        {"optimizer", b.optimizer},
                        {"total", b.total}};
  };
  return json::Object{
      {"model", spec.name},
      {"backend", sim::BackendName(backend)},
      {"non_overlap", breakdown_json(non_overlap.mean_breakdown)},
      {"overlap", breakdown_json(overlap.mean_breakdown)},
      {"overlap_speedup", speedup}};
}

/// The same breakdown measured by the Reducer's own instrumentation: a
/// 4-rank DDP world over a multi-bucket MLP, virtual-time compute model,
/// per-iteration DDPTelemetry frames.
void RunTelemetryPlane(bench::JsonReport* report) {
  auto telemetry = std::make_shared<core::TelemetryLog>();
  auto metrics = std::make_shared<MetricsRegistry>();
  auto trace = std::make_shared<core::TraceRecorder>();

  comm::SimWorldOptions world_options;
  world_options.metrics = metrics;
  comm::SimWorld::Run(4, world_options, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(7);
    auto model = std::make_shared<nn::Mlp>(
        std::vector<int64_t>{64, 256, 256, 256, 64}, &rng);
    core::DdpOptions options;
    options.bucket_cap_bytes = 64u << 10;  // several buckets -> overlap
    options.compute_model = std::make_shared<sim::ComputeCostModel>(
        sim::ComputeCostModel::GpuProfile());
    if (ctx.rank == 0) {
      options.telemetry = telemetry;
      options.metrics = metrics;
      options.trace = trace;
    }
    core::DistributedDataParallel ddp(model, ctx.process_group, options);
    Tensor x = Tensor::Full({8, 64}, 1.0);
    for (int iter = 0; iter < 3; ++iter) {
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
      for (Tensor& p : ddp.parameters()) p.grad().Zero();
    }
  });

  const auto frames = telemetry->snapshot();
  std::printf("Reducer telemetry plane (4 ranks, rank 0, %zu synced "
              "iterations):\n", frames.size());
  for (const auto& f : frames) {
    std::printf("  iter %llu: fwd=%.6f bwd_comp=%.6f wait=%.6f overlap=%.6f "
                "comm=%.6f (%zu buckets)\n",
                static_cast<unsigned long long>(f.iteration),
                f.forward_seconds, f.backward_compute_seconds,
                f.allreduce_wait_seconds, f.overlap_seconds, f.comm_seconds,
                f.buckets.size());
  }
  std::printf("\n");

  report->Add("telemetry", telemetry->ToJson());
  report->Add("metrics", metrics->ToJson());

  // Chrome-trace file with the same iterations: feed it to chrome://tracing
  // or tools/trace_summary for the overlap ratio.
  const char* dir = std::getenv("DDPKIT_BENCH_JSON_DIR");
  const std::string trace_path =
      (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "") +
      "TRACE_fig6_breakdown.json";
  const Status written = trace->WriteJson(trace_path);
  if (written.ok()) {
    std::printf("[trace] wrote %s (%zu events); inspect with "
                "tools/trace_summary\n\n", trace_path.c_str(), trace->size());
  } else {
    std::printf("[trace] WARNING: %s\n\n", written.message().c_str());
  }
}

}  // namespace

int main() {
  bench::Banner("Figure 6", "Per-iteration latency breakdown (32 GPUs)");
  bench::JsonReport report("fig6_breakdown");
  json::Array combos{RunCombo(cluster::ResNet50Spec(), sim::Backend::kNccl),
                     RunCombo(cluster::BertBaseSpec(), sim::Backend::kNccl),
                     RunCombo(cluster::ResNet50Spec(), sim::Backend::kGloo),
                     RunCombo(cluster::BertBaseSpec(), sim::Backend::kGloo)};
  report.Add("combos", std::move(combos));

  RunTelemetryPlane(&report);
  report.Write();

  std::printf("Expected shape: backward dominates every combination; "
              "communication is over half the backward delay and grows "
              "with model size; NCCL >> Gloo; overlap gains are largest "
              "when compute and communication are balanced (paper: 38.0%% "
              "/ 35.2%% on NCCL, 26.8%% / 21.5%% on Gloo).\n");
  return 0;
}
