#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "comm/sim_world.h"
#include "common/rng.h"
#include "core/distributed_data_parallel.h"
#include "core/memory.h"
#include "core/trace.h"
#include "nn/zoo.h"

namespace ddpkit::core {
namespace {

using comm::SimWorld;

// ---- TraceRecorder ------------------------------------------------------------

TEST(TraceRecorderTest, RecordsAndSnapshots) {
  TraceRecorder trace;
  trace.AddSpan("a", "comm", 0, 0.0, 1.0);
  trace.AddSpan("b", "backward", 1, 0.5, 2.0);
  EXPECT_EQ(trace.size(), 2u);
  auto spans = trace.snapshot();
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].rank, 1);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorderTest, ChromeJsonWellFormed) {
  TraceRecorder trace;
  trace.AddSpan("allreduce \"bucket\" 0", "comm", 2, 0.001, 0.002);
  const std::string json = json::Serialize(trace.ToChromeTraceJson());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\\\"bucket\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"dur\":1000"), std::string::npos);    // 1 ms in us
}

TEST(TraceRecorderTest, DdpEmitsForwardBackwardCommSpans) {
  auto trace = std::make_shared<TraceRecorder>();
  SimWorld::Run(2, [&](SimWorld::RankContext& ctx) {
    Rng rng(1);
    auto model = std::make_shared<nn::Mlp>(std::vector<int64_t>{8, 8}, &rng);
    DdpOptions options;
    options.trace = trace;
    options.compute_model = std::make_shared<sim::ComputeCostModel>(
        sim::ComputeCostModel::GpuProfile());
    DistributedDataParallel ddp(model, ctx.process_group, options);
    Tensor x = Tensor::Full({2, 8}, 1.0);
    autograd::Backward(ops::MeanAll(ddp.Forward(x)));
  });

  int forward = 0, backward = 0, comm = 0;
  for (const auto& span : trace->snapshot()) {
    EXPECT_LE(span.start_seconds, span.end_seconds);
    if (span.category == "forward") ++forward;
    if (span.category == "backward") ++backward;
    if (span.category == "comm") ++comm;
  }
  EXPECT_EQ(forward, 2);   // one per rank
  EXPECT_EQ(backward, 4);  // two params per rank
  EXPECT_EQ(comm, 2);      // one bucket per rank
}

TEST(TraceRecorderTest, WriteJsonRoundTrip) {
  TraceRecorder trace;
  trace.AddSpan("x", "comm", 0, 0.0, 0.5);
  const std::string path = std::string(::testing::TempDir()) +
                           "/ddpkit_trace_test.json";
  ASSERT_TRUE(trace.WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {0};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(buf).substr(0, 2), "{\"");
  std::remove(path.c_str());
}

// ---- MemoryEstimate -------------------------------------------------------------

std::vector<ParamMeta> MegabyteParams(int count) {
  std::vector<ParamMeta> params;
  for (int i = 0; i < count; ++i) {
    params.push_back(ParamMeta{262144, 1u << 20, 0});  // 1 MB each
  }
  return params;
}

TEST(MemoryEstimateTest, BaselineCountsParamsGradsBuckets) {
  ReducerOptions options;
  options.bucket_cap_bytes = 4u << 20;
  auto estimate = EstimateDdpMemory(MegabyteParams(8), options);
  EXPECT_EQ(estimate.parameter_bytes, 8u << 20);
  EXPECT_EQ(estimate.gradient_bytes, 8u << 20);
  EXPECT_EQ(estimate.bucket_bytes, 8u << 20);
  EXPECT_EQ(estimate.bitmap_bytes, 0u);
  EXPECT_EQ(estimate.Total(), 24u << 20);
}

TEST(MemoryEstimateTest, BucketViewsEliminateGradientCopy) {
  ReducerOptions options;
  options.gradient_as_bucket_view = true;
  auto estimate = EstimateDdpMemory(MegabyteParams(8), options);
  EXPECT_EQ(estimate.gradient_bytes, 0u);
  EXPECT_EQ(estimate.Total(), 16u << 20);
}

TEST(MemoryEstimateTest, FindUnusedAddsBitmaps) {
  ReducerOptions options;
  options.find_unused_parameters = true;
  auto estimate = EstimateDdpMemory(MegabyteParams(8), options);
  EXPECT_EQ(estimate.bitmap_bytes, 16u);  // 2 bitmaps x 8 params
}

TEST(MemoryEstimateTest, CompressionHookPayloads) {
  ReducerOptions fp16;
  fp16.comm_hook = std::make_shared<Fp16CompressionHook>();
  fp16.bucket_cap_bytes = 4u << 20;
  auto with_fp16 = EstimateDdpMemory(MegabyteParams(8), fp16);
  EXPECT_EQ(with_fp16.hook_payload_bytes, 2u << 20);  // half of 4MB bucket

  ReducerOptions onebit;
  onebit.comm_hook = std::make_shared<OneBitCompressionHook>();
  auto with_onebit = EstimateDdpMemory(MegabyteParams(8), onebit);
  // Residuals dominate: full bucket bytes + 1/32 of max bucket.
  EXPECT_GT(with_onebit.hook_payload_bytes, 8u << 20);
}

TEST(MemoryEstimateTest, ToStringMentionsTotal) {
  auto estimate = EstimateDdpMemory(MegabyteParams(2), ReducerOptions{});
  EXPECT_NE(estimate.ToString().find("total="), std::string::npos);
}

}  // namespace
}  // namespace ddpkit::core
