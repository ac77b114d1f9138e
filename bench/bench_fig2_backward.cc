// Figure 2 (c)/(d): time elapsed in the backward pass of a ~60M-parameter
// ResNet152 as a function of the number of gradients already produced, on
// the GPU and CPU device profiles. The "measured range" band comes from
// per-op log-normal jitter across repeated runs.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "cluster/model_specs.h"
#include "common/rng.h"
#include "sim/compute_cost_model.h"

using namespace ddpkit;  // NOLINT

namespace {

json::Value RunDevice(const sim::ComputeCostModel::Options& profile,
                      const char* label) {
  const auto spec = cluster::ResNet152Spec();
  std::vector<int64_t> backward_numels;
  for (size_t i = spec.params.size(); i-- > 0;) {
    backward_numels.push_back(spec.params[i].numel);
  }
  sim::ComputeCostModel model(profile);

  constexpr int kRuns = 20;
  std::vector<std::vector<double>> runs;
  Rng rng(7);
  for (int r = 0; r < kRuns; ++r) {
    runs.push_back(model.GradReadyTimes(backward_numels, &rng));
  }

  // Cumulative parameter count along the backward timeline.
  std::vector<int64_t> cumulative(backward_numels.size());
  int64_t acc = 0;
  for (size_t i = 0; i < backward_numels.size(); ++i) {
    acc += backward_numels[i];
    cumulative[i] = acc;
  }

  std::printf("%s backward on %s: %zu gradient tensors, %.1fM parameters\n",
              spec.name.c_str(), label, spec.params.size(),
              spec.TotalNumel() / 1e6);
  std::printf("%-18s %-14s %-14s %-14s\n", "params_ready", "median_sec",
              "min_sec", "max_sec");
  // Print ~16 evenly spaced sample points.
  const size_t n = backward_numels.size();
  json::Array rows;
  for (size_t s = 1; s <= 16; ++s) {
    const size_t idx = std::min(n - 1, s * n / 16);
    std::vector<double> at;
    for (const auto& run : runs) at.push_back(run[idx]);
    Summary summary = Summarize(at);
    std::printf("%-18lld %-14.4f %-14.4f %-14.4f\n",
                static_cast<long long>(cumulative[idx]), summary.median,
                summary.min, summary.max);
    rows.emplace_back(json::Object{{"params_ready", cumulative[idx]},
                                   {"median_seconds", summary.median},
                                   {"min_seconds", summary.min},
                                   {"max_seconds", summary.max}});
  }
  std::printf("\n");
  return json::Object{{"device", label}, {"rows", std::move(rows)}};
}

}  // namespace

int main() {
  bench::JsonReport report("fig2_backward");
  bench::Banner("Figure 2(c)", "GPU backward time vs #ready parameters "
                               "(ResNet152)");
  const json::Value gpu = RunDevice(sim::ComputeCostModel::GpuProfile(), "GPU");

  bench::Banner("Figure 2(d)", "CPU backward time vs #ready parameters "
                               "(ResNet152)");
  const json::Value cpu = RunDevice(sim::ComputeCostModel::CpuProfile(), "CPU");
  report.Add("devices", json::Array{gpu, cpu});
  report.Write();

  std::printf("Expected shape: near-linear growth; full GPU backward "
              "~0.25 s, CPU ~6 s (paper Fig 2c/2d).\n");
  return 0;
}
