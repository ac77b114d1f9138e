#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/sim_world.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "nn/zoo.h"
#include "sim/compute_cost_model.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;

TEST(TelemetryRecordTest, ToJsonCarriesEveryField) {
  DDPTelemetry t;
  t.iteration = 7;
  t.rank = 2;
  t.synced = false;
  t.forward_seconds = 0.25;
  t.backward_compute_seconds = 0.5;
  t.allreduce_wait_seconds = 0.125;
  t.overlap_seconds = 0.375;
  t.comm_seconds = 0.4375;
  t.buckets.push_back(BucketTelemetry{3, 1024, 1.0, 2.0, 0.5});
  t.rebuilds = 1;
  t.sync_failures = 2;

  const std::string json = json::Serialize(t.ToJson());
  EXPECT_NE(json.find("\"iteration\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"synced\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"forward_seconds\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"overlap_seconds\":0.375"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bucket\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes\":1024"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rebuilds\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sync_failures\":2"), std::string::npos) << json;
}

TEST(TelemetryLogTest, AppendSnapshotClear) {
  TelemetryLog log;
  EXPECT_EQ(log.size(), 0u);
  DDPTelemetry a;
  a.iteration = 0;
  DDPTelemetry b;
  b.iteration = 1;
  log.Append(a);
  log.Append(b);
  EXPECT_EQ(log.size(), 2u);
  auto frames = log.snapshot();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].iteration, 1u);
  const std::string json = json::Serialize(log.ToJson());
  EXPECT_NE(json.find("\"iterations\":["), std::string::npos) << json;
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

/// One shared 2-rank run with telemetry, metrics and tracing attached on
/// rank 0 (metrics alone with `metrics_only`); the assertions below slice
/// its outputs.
struct InstrumentedRun {
  std::shared_ptr<TelemetryLog> telemetry =
      std::make_shared<TelemetryLog>();
  std::shared_ptr<MetricsRegistry> metrics =
      std::make_shared<MetricsRegistry>();
  std::shared_ptr<TraceRecorder> trace = std::make_shared<TraceRecorder>();
  size_t num_buckets = 0;
  uint64_t bytes_reduced = 0;  // rank 0's Reducer::Stats after the run
  static constexpr int kIterations = 3;

  explicit InstrumentedRun(bool metrics_only = false) {
    SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
      Rng rng(9);
      auto model = std::make_shared<nn::Mlp>(
          std::vector<int64_t>{16, 32, 32, 16}, &rng);
      DdpOptions options;
      options.bucket_cap_bytes = 2048;  // several buckets per iteration
      options.compute_model = std::make_shared<sim::ComputeCostModel>(
          sim::ComputeCostModel::GpuProfile());
      if (ctx.rank == 0) {
        options.metrics = metrics;
        if (!metrics_only) {
          options.telemetry = telemetry;
          options.trace = trace;
        }
      }
      DistributedDataParallel ddp(model, ctx.process_group, options);
      if (ctx.rank == 0) num_buckets = ddp.reducer().num_buckets();
      Tensor x = Tensor::Full({4, 16}, 0.5);
      for (int it = 0; it < kIterations; ++it) {
        model->ZeroGrad();
        autograd::Backward(ops::MeanAll(ddp.Forward(x)));
      }
      if (ctx.rank == 0) bytes_reduced = ddp.reducer().stats().bytes_reduced;
    });
  }
};

TEST(DdpTelemetryTest, FramesAreInternallyConsistent) {
  InstrumentedRun run;
  const auto frames = run.telemetry->snapshot();
  ASSERT_EQ(frames.size(), static_cast<size_t>(run.kIterations));
  ASSERT_GT(run.num_buckets, 1u);
  for (size_t i = 0; i < frames.size(); ++i) {
    const DDPTelemetry& f = frames[i];
    EXPECT_EQ(f.iteration, i);
    EXPECT_EQ(f.rank, 0);
    EXPECT_TRUE(f.synced);
    EXPECT_GT(f.forward_seconds, 0.0);
    EXPECT_GT(f.backward_compute_seconds, 0.0);
    EXPECT_GT(f.comm_seconds, 0.0);
    // The tentpole invariant: hidden communication cannot exceed the
    // backward-compute span it hides under, and the union of bucket windows
    // bounds both its clipped (overlap) and exposed portions.
    EXPECT_LE(f.overlap_seconds, f.backward_compute_seconds + 1e-12);
    EXPECT_LE(f.overlap_seconds, f.comm_seconds + 1e-12);
    EXPECT_GE(f.allreduce_wait_seconds, 0.0);
    EXPECT_GE(f.copy_in_seconds, 0.0);
    EXPECT_GE(f.copy_out_seconds, 0.0);
    ASSERT_EQ(f.buckets.size(), run.num_buckets);
    for (const BucketTelemetry& b : f.buckets) {
      EXPECT_GT(b.bytes, 0u);
      EXPECT_GE(b.completion_seconds, b.launch_seconds);
      EXPECT_GE(b.wait_seconds, 0.0);
    }
    // Per-parameter compute recorded for every hook (12 params in the Mlp).
    EXPECT_EQ(f.param_compute_seconds.size(), 6u);
    EXPECT_EQ(f.sync_failures, 0u);
  }
}

TEST(DdpTelemetryTest, MetricsHistogramsMatchIterationCount) {
  InstrumentedRun run;
  EXPECT_EQ(run.metrics->counter("reducer.finalized_backwards").value(),
            static_cast<uint64_t>(run.kIterations));
  EXPECT_EQ(run.metrics->histogram("ddp.backward_compute_seconds").count(),
            static_cast<size_t>(run.kIterations));
  EXPECT_EQ(run.metrics->histogram("ddp.forward_seconds").count(),
            static_cast<size_t>(run.kIterations));
  EXPECT_EQ(run.metrics->histogram("reducer.bucket_latency_seconds").count(),
            static_cast<size_t>(run.kIterations) * run.num_buckets);
  // Each bucket's bytes count once, at launch: the counter tracks the
  // Reducer's own cumulative stat instead of re-adding it per finalize.
  EXPECT_GT(run.bytes_reduced, 0u);
  EXPECT_EQ(run.metrics->counter("reducer.bytes_reduced").value(),
            run.bytes_reduced);
}

TEST(DdpTelemetryTest, MetricsDoNotDependOnTelemetrySink) {
  // The ddp.* and reducer.* metrics derive from the Reducer's per-iteration
  // frame; it must be filled whether or not a TelemetryLog is attached.
  InstrumentedRun both;
  InstrumentedRun metrics_only(/*metrics_only=*/true);
  const auto& overlap = both.metrics->histogram("ddp.overlap_seconds");
  const auto& latency =
      both.metrics->histogram("reducer.bucket_latency_seconds");
  ASSERT_GT(overlap.sum(), 0.0);
  ASSERT_GT(latency.count(), 0u);
  EXPECT_EQ(metrics_only.metrics->histogram("ddp.overlap_seconds").sum(),
            overlap.sum());
  EXPECT_EQ(metrics_only.metrics->histogram("reducer.bucket_latency_seconds")
                .count(),
            latency.count());
  EXPECT_EQ(metrics_only.telemetry->size(), 0u);
}

TEST(DdpTelemetryTest, FlowArrowsLinkReadyLaunchCompletion) {
  InstrumentedRun run;
  const auto flows = run.trace->flow_points();
  // One s/t/f triple per bucket per iteration.
  const size_t expected = run.num_buckets * run.kIterations;
  std::map<uint64_t, std::vector<TraceRecorder::FlowPoint>> by_id;
  for (const auto& fp : flows) by_id[fp.flow_id].push_back(fp);
  EXPECT_EQ(by_id.size(), expected);
  for (const auto& [id, points] : by_id) {
    ASSERT_EQ(points.size(), 3u) << "flow " << id;
    // Recorded in phase order: grads-ready, launch, completion.
    EXPECT_EQ(points[0].phase, TraceRecorder::FlowPhase::kStart);
    EXPECT_EQ(points[1].phase, TraceRecorder::FlowPhase::kStep);
    EXPECT_EQ(points[2].phase, TraceRecorder::FlowPhase::kEnd);
    // Causally ordered: ready <= launch <= completion.
    EXPECT_LE(points[0].time_seconds, points[1].time_seconds);
    EXPECT_LE(points[1].time_seconds, points[2].time_seconds);
    EXPECT_NE(points[0].name.find("grads ready"), std::string::npos);
    EXPECT_NE(points[1].name.find("launch"), std::string::npos);
    EXPECT_NE(points[2].name.find("complete"), std::string::npos);
  }

  // Frame markers: one instant per iteration. Wire-byte accounting adds
  // one "comm" instant per bucket launch alongside them.
  const auto instants = run.trace->instants();
  size_t frame_instants = 0;
  size_t wire_instants = 0;
  for (const auto& inst : instants) {
    if (inst.category == "frame") {
      ++frame_instants;
    } else {
      ASSERT_EQ(inst.category, "comm");
      EXPECT_NE(inst.name.find(" wire "), std::string::npos);
      ++wire_instants;
    }
  }
  EXPECT_EQ(frame_instants, static_cast<size_t>(run.kIterations));
  EXPECT_EQ(wire_instants, expected);

  // The Chrome export renders every flow phase with a shared id.
  const std::string json = json::Serialize(run.trace->ToChromeTraceJson());
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(DdpTelemetryTest, FlowIdsAreUniqueAcrossRanksAndIterations) {
  // Both ranks record into ONE shared recorder: ids must still be unique
  // per (rank, iteration, bucket).
  auto trace = std::make_shared<TraceRecorder>();
  size_t num_buckets = 0;
  constexpr int kIterations = 2;
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(10);
    auto model =
        std::make_shared<nn::Mlp>(std::vector<int64_t>{8, 16, 8}, &rng);
    DdpOptions options;
    options.bucket_cap_bytes = 1024;
    options.trace = trace;  // shared across ranks
    DistributedDataParallel ddp(model, ctx.process_group, options);
    if (ctx.rank == 0) num_buckets = ddp.reducer().num_buckets();
    Tensor x = Tensor::Full({2, 8}, 1.0);
    for (int it = 0; it < kIterations; ++it) {
      model->ZeroGrad();
      autograd::Backward(ops::MeanAll(ddp.Forward(x)));
    }
  });
  std::map<uint64_t, size_t> counts;
  for (const auto& fp : trace->flow_points()) ++counts[fp.flow_id];
  EXPECT_EQ(counts.size(), 2u * kIterations * num_buckets);
  for (const auto& [id, n] : counts) {
    EXPECT_EQ(n, 3u) << "flow id " << id << " reused across flows";
  }
}

}  // namespace
}  // namespace ddpkit::core
