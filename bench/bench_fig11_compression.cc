// Figure 11 companion: gradient compression — bytes on the wire versus
// final training loss, per comm hook. Runs the same deterministic 4-rank
// regression workload uncompressed and under every hook in the registry
// (fp16 / bf16 / onebit / powersgd / topk), then reports per-hook wire
// bytes (from the reducer's ddp.comm.bytes_{raw,compressed} counters) and
// the final-step loss.
//
// Expected shape: every hook moves strictly fewer bytes than the
// uncompressed run (onebit ~32x less, powersgd/topk ~8x, fp16/bf16 2x)
// while the error-feedback hooks still converge — final loss well below
// the first step's.
//
// The "zoo_sweep" section is the CI gate surface: tools/bench_compare
// checks each <hook>/wire_bytes cell (ns = bytes actually sent; more
// bytes than baseline * threshold = compression regression) and each
// <hook>/final_loss cell (ns = final loss x 1e6; higher = convergence
// regression) against bench/baselines/BENCH_fig11_compression.json. The
// workload is simulated and fully seeded, so the numbers are deterministic.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "bench_json.h"
#include "bench_util.h"
#include "comm/sim_world.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/compression.h"
#include "core/distributed_data_parallel.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"

using namespace ddpkit;  // NOLINT

namespace {

struct HookRun {
  std::string name;
  uint64_t bytes_raw = 0;
  uint64_t bytes_compressed = 0;
  double first_loss = 0.0;
  double final_loss = 0.0;
};

constexpr int kWorld = 4;
constexpr int kSteps = 40;

/// 4 ranks train an Mlp{16,32,1} against a fixed linear teacher for 40
/// steps, per-(step, rank) data. Identical across hooks except for the
/// gradient transport, so loss deltas isolate the compression error.
HookRun RunHook(const std::string& hook_name) {
  auto metrics = std::make_shared<MetricsRegistry>();
  HookRun out;
  out.name = hook_name.empty() ? "none" : hook_name;
  comm::SimWorld::Run(kWorld, [&](comm::SimWorld::RankContext& ctx) {
    Rng rng(11);
    auto model =
        std::make_shared<nn::Mlp>(std::vector<int64_t>{16, 32, 1}, &rng);
    core::DdpOptions options;
    options.comm_hook = core::MakeCommHookByName(hook_name);
    if (ctx.rank == 0) options.metrics = metrics;
    core::DistributedDataParallel ddp(model, ctx.process_group, options);
    optim::Sgd opt(model->parameters(), optim::Sgd::Options{.lr = 0.05});
    nn::MSELoss mse;
    Rng teacher_rng(99);
    const Tensor w_star = Tensor::Randn({16, 1}, &teacher_rng);
    for (int step = 0; step < kSteps; ++step) {
      opt.ZeroGrad();
      Rng data_rng(static_cast<uint64_t>(step * 1000 + ctx.rank));
      Tensor x = Tensor::Randn({8, 16}, &data_rng);
      Tensor y = kernels::MatMul(x, w_star);
      Tensor loss = mse(ddp.Forward(x), y);
      if (ctx.rank == 0) {
        if (step == 0) out.first_loss = loss.Item();
        out.final_loss = loss.Item();
      }
      autograd::Backward(loss);
      opt.Step();
    }
  });
  out.bytes_raw = metrics->counter("ddp.comm.bytes_raw").value();
  out.bytes_compressed = metrics->counter("ddp.comm.bytes_compressed").value();
  return out;
}

}  // namespace

int main() {
  bench::JsonReport report("fig11_compression");
  bench::Banner("Compression sweep",
                "bytes on the wire x final loss per comm hook "
                "(4 ranks, 40 steps, Mlp{16,32,1})");

  std::vector<std::string> hooks = {"none"};
  for (const std::string& name : core::CommHookNames()) hooks.push_back(name);

  std::printf("%-10s %-14s %-16s %-10s %-12s %-12s\n", "hook", "bytes_raw",
              "bytes_compressed", "ratio", "first_loss", "final_loss");
  std::vector<HookRun> runs;
  json::Array rows;
  json::Array sweep;
  bool ok = true;
  for (size_t i = 0; i < hooks.size(); ++i) {
    const HookRun run = RunHook(hooks[i]);
    const double ratio =
        run.bytes_raw > 0
            ? static_cast<double>(run.bytes_compressed) /
                  static_cast<double>(run.bytes_raw)
            : 0.0;
    std::printf("%-10s %-14llu %-16llu %-10.4f %-12.5f %-12.5f\n",
                run.name.c_str(),
                static_cast<unsigned long long>(run.bytes_raw),
                static_cast<unsigned long long>(run.bytes_compressed), ratio,
                run.first_loss, run.final_loss);
    // Acceptance: compressing hooks move strictly fewer bytes than raw,
    // and every run still learns the teacher (loss falls by >= 2x).
    if (run.name != "none" && run.bytes_compressed >= run.bytes_raw) {
      std::printf("  FAIL: %s did not compress\n", run.name.c_str());
      ok = false;
    }
    if (!(run.final_loss < 0.5 * run.first_loss)) {
      std::printf("  FAIL: %s did not converge\n", run.name.c_str());
      ok = false;
    }
    rows.emplace_back(json::Object{{"hook", run.name},
                                   {"bytes_raw", run.bytes_raw},
                                   {"bytes_compressed", run.bytes_compressed},
                                   {"ratio", ratio},
                                   {"first_loss", run.first_loss},
                                   {"final_loss", run.final_loss}});
    sweep.emplace_back(json::Object{{"algorithm", run.name + "/wire_bytes"},
                                    {"world", kWorld},
                                    {"bytes", run.bytes_raw},
                                    {"ns", run.bytes_compressed}});
    sweep.emplace_back(json::Object{{"algorithm", run.name + "/final_loss"},
                                    {"world", kWorld},
                                    {"bytes", run.bytes_raw},
                                    {"ns", run.final_loss * 1e6}});
    runs.push_back(run);
  }
  report.Add("hooks", std::move(rows));
  report.Add("zoo_sweep", std::move(sweep));
  report.Add("world", kWorld);
  report.Add("steps", kSteps);
  report.Write();

  std::printf("\nExpected shape: onebit ~1/32 of raw bytes, powersgd/topk "
              "~1/8, fp16/bf16 1/2; all hooks converge (final loss < 0.5x "
              "first loss).\n");
  return ok ? 0 : 1;
}
