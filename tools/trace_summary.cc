// trace_summary: digest a ddpkit Chrome-trace JSON file (written by
// TraceRecorder::WriteJson) into the paper's Figure-6 style overlap
// numbers, per rank:
//
//   backward  = union of "backward" category spans (per-gradient hooks)
//   comm      = union of "comm" category spans (bucket AllReduce windows)
//   overlap   = |backward ∩ comm|
//   ratio     = overlap / comm   (1.0 = communication fully hidden)
//
// Also counts flow arrows (grad-ready -> launch -> completion) and frame
// markers so a truncated or mis-written trace is visible at a glance.
//
// Malformed input (a bad number, nesting past json::kMaxDepth, a tid that
// is not an int64) is a message and exit 1, never a crash or a misread.
//
// Usage:
//   trace_summary <trace.json>
//   trace_summary --selftest [scratch.json]   # write + verify known traces
//
// Exit status is 0 on success, 1 on parse/verification failure, so the
// selftest doubles as a ctest entry.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/trace.h"
#include "tool_util.h"

namespace {

namespace json = ddpkit::json;
using ddpkit::Result;
using ddpkit::core::TraceRecorder;

// ---------------------------------------------------------------------------
// Interval arithmetic over microsecond spans.
// ---------------------------------------------------------------------------

using Interval = std::pair<double, double>;

std::vector<Interval> UnionIntervals(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> merged;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

double TotalLength(const std::vector<Interval>& merged) {
  double total = 0.0;
  for (const Interval& iv : merged) total += iv.second - iv.first;
  return total;
}

double IntersectionLength(const std::vector<Interval>& a,
                          const std::vector<Interval>& b) {
  double total = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Summary proper.
// ---------------------------------------------------------------------------

struct RankSummary {
  std::vector<Interval> backward;
  std::vector<Interval> comm;
  std::vector<Interval> forward;
  int flow_starts = 0;
  int flow_steps = 0;
  int flow_ends = 0;
  int frames = 0;
};

bool Summarize(const json::Value& root, std::string* error,
               std::map<int64_t, RankSummary>* out) {
  using Kind = json::Value::Kind;
  if (root["traceEvents"].kind() != Kind::kArray) {
    *error = "no traceEvents array at top level";
    return false;
  }
  for (const json::Value& ev : root["traceEvents"].items()) {
    const std::string& ph = ev["ph"].str();
    if (ev["ph"].kind() != Kind::kString || ev["tid"].kind() == Kind::kNull) {
      continue;
    }
    const Result<int64_t> tid = ev["tid"].AsInt();
    if (!tid.ok()) {
      *error = "tid: " + tid.status().message();
      return false;
    }
    RankSummary& rank = (*out)[tid.value()];
    const std::string& category = ev["cat"].str();
    if (ph == "X") {
      if (!ev["ts"].is_number() || !ev["dur"].is_number()) continue;
      const double ts = ev["ts"].number();
      const Interval iv{ts, ts + ev["dur"].number()};
      if (category == "backward") rank.backward.push_back(iv);
      else if (category == "comm") rank.comm.push_back(iv);
      else if (category == "forward") rank.forward.push_back(iv);
    } else if (ph == "s") {
      ++rank.flow_starts;
    } else if (ph == "t") {
      ++rank.flow_steps;
    } else if (ph == "f") {
      ++rank.flow_ends;
    } else if (ph == "i" && category == "frame") {
      ++rank.frames;
    }
  }
  if (out->empty()) {
    *error = "trace contains no events";
    return false;
  }
  return true;
}

void PrintSummary(const std::map<int64_t, RankSummary>& ranks) {
  std::printf("%-6s %-12s %-12s %-12s %-12s %-8s %-16s %-7s\n", "rank",
              "forward_ms", "backward_ms", "comm_ms", "overlap_ms", "ratio",
              "flows(s/t/f)", "frames");
  for (const auto& [rank, s] : ranks) {
    const auto backward = UnionIntervals(s.backward);
    const auto comm = UnionIntervals(s.comm);
    const double backward_us = TotalLength(backward);
    const double comm_us = TotalLength(comm);
    const double overlap_us = IntersectionLength(backward, comm);
    const double ratio = comm_us > 0.0 ? overlap_us / comm_us : 0.0;
    std::ostringstream flows;
    flows << s.flow_starts << "/" << s.flow_steps << "/" << s.flow_ends;
    std::printf("%-6lld %-12.3f %-12.3f %-12.3f %-12.3f %-8.3f %-16s %-7d\n",
                static_cast<long long>(rank),
                TotalLength(UnionIntervals(s.forward)) * 1e-3,
                backward_us * 1e-3, comm_us * 1e-3, overlap_us * 1e-3, ratio,
                flows.str().c_str(), s.frames);
  }
  std::printf("\nratio = |backward ∩ comm| / |comm|: 1.0 means every "
              "AllReduce microsecond was hidden under backward compute "
              "(paper Fig 6); 0.0 means fully serialized.\n");
}

bool SummarizeFile(const std::string& path,
                   std::map<int64_t, RankSummary>* ranks) {
  const Result<std::string> text = json::ReadFile(path);
  const Result<json::Value> root =
      text.ok() ? json::Parse(text.value()) : text.status();
  std::string error = root.status().message();
  if (!root.ok() || !Summarize(root.value(), &error, ranks)) {
    std::fprintf(stderr, "trace_summary: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

// Writes a trace with known answers and checks the pipeline end to end.
int SelfTest(const std::string& path) {
  TraceRecorder trace;
  // Rank 0: backward occupies [0ms, 10ms] and comm [5ms, 15ms], so the
  // overlap is 5ms and the ratio must come out exactly 0.5.
  trace.AddSpan("forward", "forward", 0, 0.000, 0.002);
  trace.AddSpan("grad 0", "backward", 0, 0.000, 0.006);
  trace.AddSpan("grad 1", "backward", 0, 0.004, 0.010);
  trace.AddSpan("allreduce bucket 0", "comm", 0, 0.005, 0.015);
  trace.AddFlowPoint(1, TraceRecorder::FlowPhase::kStart,
                     "bucket 0 grads ready", "flow", 0, 0.005);
  trace.AddFlowPoint(1, TraceRecorder::FlowPhase::kStep, "bucket 0 launch",
                     "flow", 0, 0.005);
  trace.AddFlowPoint(1, TraceRecorder::FlowPhase::kEnd, "bucket 0 complete",
                     "flow", 0, 0.015);
  trace.AddInstant("iteration 0", "frame", 0, 0.015);
  // Rank 1, twelve seconds into a run: backward [12.345678, 12.345978] s
  // and comm [12.3458, 12.3461] s overlap by 0.178 of 0.3 ms. Timestamps
  // cut to six significant digits (100 us here) read 0.2 ms, ratio 0.667.
  trace.AddSpan("grad 0", "backward", 1, 12.345678, 12.345978);
  trace.AddSpan("allreduce bucket 0", "comm", 1, 12.3458, 12.3461);
  const ddpkit::Status written = trace.WriteJson(path);
  if (!written.ok()) {
    std::fprintf(stderr, "trace_summary selftest: %s\n",
                 written.message().c_str());
    return 1;
  }

  std::map<int64_t, RankSummary> ranks;
  if (!SummarizeFile(path, &ranks)) return 1;
  PrintSummary(ranks);

  const auto check = [&ranks](int rank, double backward_us, double ratio) {
    const auto backward = UnionIntervals(ranks[rank].backward);
    const auto comm = UnionIntervals(ranks[rank].comm);
    const double got = IntersectionLength(backward, comm) / TotalLength(comm);
    const bool ok = std::fabs(got - ratio) < 1e-9 &&
                    std::fabs(TotalLength(backward) - backward_us) < 1e-6;
    std::printf("selftest rank %d %s (ratio %.6f, expected %.6f)\n", rank,
                ok ? "PASSED" : "FAILED", got, ratio);
    return ok;
  };
  const RankSummary& s = ranks[0];
  const bool flows_ok = s.flow_starts == 1 && s.flow_steps == 1 &&
                        s.flow_ends == 1 && s.frames == 1;
  const bool early_ok = check(0, 10000.0, 0.5);
  const bool late_ok = check(1, 300.0, 0.178 / 0.3);
  return flows_ok && early_ok && late_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ddpkit::tools::ToolSpec spec;
  spec.usage = {"<trace.json>", "--selftest [scratch.json]"};
  spec.min_positional = 1;
  spec.max_positional = 1;
  spec.run = [](const ddpkit::tools::ToolArgs& args) {
    std::map<int64_t, RankSummary> ranks;
    if (!SummarizeFile(args.positional[0], &ranks)) return 1;
    PrintSummary(ranks);
    return 0;
  };
  spec.selftest = [](const ddpkit::tools::ToolArgs& args) {
    return SelfTest(args.positional.empty() ? "trace_summary_selftest.json"
                                            : args.positional[0]);
  };
  return ddpkit::tools::RunTool(argc, argv, spec);
}
